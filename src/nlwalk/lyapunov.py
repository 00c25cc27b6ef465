"""Convergence certificates: Q, relative entropy H, the Lyapunov
function W = H + 2Ks - 3s^2, and trajectory monitoring.

The monotonicity of W is proved at c = 1 only; for other c the values
are still computed but no claim is certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import SystemState, TrajectoryLog
from .errors import CNotOne
from .lattice import LatticeMeasure, mean_position
from .model import (
    ModelParams,
    beta_array,
    check_beta_bounded,
    largest_contraction_constant,
    rate_arrays,
)

# below this, p_n is treated as exactly zero in the entropy (floating
# point underflows where the exact solution stays positive)
P_FLOOR = 1e-300


@dataclass(frozen=True)
class LyapunovSample:
    t: float
    Q: float
    H: float
    W: float
    K: float
    s: float


@dataclass
class MonitorReport:
    violations: int
    max_violation: float
    series: List[LyapunovSample]
    q_max: float
    q_bound: Optional[float]   # None when the contraction condition fails
    q_bounded: bool
    mean_offset_max: float
    mean_offset_bound: Optional[float]
    L_range: tuple
    M_range: tuple


def Q_value(params: ModelParams, state: SystemState) -> float:
    """Q = sum p_n (beta(n) e^{c(s-n)} + beta(n-1) e^{c(n-s)}), the
    untruncated rates summed at L = M = s.

    Equals e^{-c d} * sum p_n (lambda_n + mu_n); certified claims use c=1.
    """
    lam, mu = rate_arrays(params, state.s, state.s, state.window, truncated=False)
    return float(np.dot(state.p.values, lam + mu))


def entropy_H(p: LatticeMeasure, s: float, c: float) -> float:
    """Relative entropy against the unnormalized Gaussian exp(-c(s-n)^2):
    H = sum p_n (ln p_n + c(s-n)^2), with 0 ln 0 = 0.

    Satisfies the Gibbs bound H >= -ln Xi(c, s), equality iff p is the
    normalized Gaussian.
    """
    v = np.where(p.values > P_FLOOR, p.values, 0.0)
    n = p.window.sites().astype(float)
    nz = v > 0.0
    return float(np.sum(v[nz] * (np.log(v[nz]) + c * (s - n[nz]) ** 2)))


def W_value(state: SystemState, K: float, c: float = 1.0, certified: bool = True) -> float:
    """W = H + 2Ks - 3s^2 (the proof setting is c = 1)."""
    if certified and c != 1.0:
        raise CNotOne("the Lyapunov function W is certified only at c = 1")
    s = state.s
    return entropy_H(state.p, s, c) + 2.0 * K * s - 3.0 * s * s


def annotate(params: ModelParams, log: TrajectoryLog) -> TrajectoryLog:
    """Fill Q, H, W on every sample (in place); W uses K from t = 0."""
    K0 = log.samples[0].K
    certified = params.c == 1.0
    for s in log.samples:
        s.Q = Q_value(params, s.state)
        s.H = entropy_H(s.state.p, s.state.s, params.c)
        s.W = W_value(s.state, K0, c=params.c, certified=False) if not certified \
            else W_value(s.state, K0)
    return log


def W_increases(W: Sequence[float], slack: float = 1e-9) -> Tuple[int, float]:
    """(count, largest) of the steps W[k+1] - W[k] that rise above slack
    or touch a non-finite W; the largest is over the finite rises, 0.0
    when there are none."""
    steps = [b - a for a, b in zip(W[:-1], W[1:])]
    bad = [x for x in steps if not (math.isfinite(x) and x <= slack)]
    return len(bad), max((x for x in bad if math.isfinite(x)), default=0.0)


def monitor(log: TrajectoryLog, slack: float = 1e-9) -> MonitorReport:
    """Scan a trajectory for Lyapunov violations and boundedness.

    Counts sample pairs with W(t_{k+1}) > W(t_k) + slack, and checks the
    a-priori bounds: Q(t) <= max(Q(0), sup_beta/(2C) + 2e sup_beta^2)
    whenever the contraction constant C of the profile is positive, and
    |mean - s| <= Q / inf_beta.
    """
    params = log.params
    if any(s.W is None for s in log.samples):
        annotate(params, log)
    series = [
        LyapunovSample(t=s.t, Q=s.Q, H=s.H, W=s.W, K=s.K, s=s.state.s)
        for s in log.samples
    ]
    violations, max_violation = W_increases([s.W for s in series], slack)

    window = log.window
    _, sup_beta = check_beta_bounded(params.beta, window)
    C = largest_contraction_constant(params.beta, window)
    q_vals = np.array([s.Q for s in series])
    q_max = float(q_vals.max())
    if C > 0:
        q_bound = max(series[0].Q, sup_beta / (2.0 * C) + 2.0 * math.e * sup_beta**2)
        q_bounded = bool(q_max <= q_bound + slack)
    else:
        q_bound = None
        q_bounded = bool(np.isfinite(q_vals).all())

    inf_beta = float(beta_array(params.beta, window.n_min - 1, window.n_max + 1).min())
    offsets = np.array(
        [abs(mean_position(s.state.p) - s.state.s) for s in log.samples]
    )
    mean_offset_bound = q_max / inf_beta if inf_beta > 0 else None

    Ls = [s.state.L for s in log.samples]
    Ms = [s.state.M for s in log.samples]
    return MonitorReport(
        violations=violations,
        max_violation=max_violation,
        series=series,
        q_max=q_max,
        q_bound=q_bound,
        q_bounded=q_bounded,
        mean_offset_max=float(offsets.max()),
        mean_offset_bound=mean_offset_bound,
        L_range=(min(Ls), max(Ls)),
        M_range=(min(Ms), max(Ms)),
    )
