"""Convergence certificates: Q, relative entropy H, the Lyapunov
function W = H + c(2Ks - 3s^2), and trajectory monitoring.

W is nonincreasing at every c > 0 and every beta while K is conserved
(C_lambda = C_mu).  With s = (L + M)/2 and the probability current
J_n = lambda_n p_n - mu_{n+1} p_{n+1} across the bond (n, n+1), the rates
satisfy lambda_n / mu_{n+1} = e^{c(L + M - 2n - 1)}, so
ln(lambda_n / mu_{n+1}) = c(2s - 2n - 1) = c[(s - n)^2 - (s - n - 1)^2].
Since dp_n/dt = J_{n-1} - J_n and the p_n sum to 1,

    dH/dt = sum_n J_n ln(p_{n+1} / p_n) + c sum_n J_n [(s - n - 1)^2 - (s - n)^2]
            + 2c s' sum_n p_n (s - n)
          = -sigma + 2c s' (s - mean),
    sigma = sum_n J_n ln(lambda_n p_n / (mu_{n+1} p_{n+1})) >= 0,

each term of sigma being (a - b) ln(a / b) >= 0.  On the window the end
bonds carry no current (lambda is 0 at the right edge, mu at the left),
so the sum by parts has no boundary term.  With K = L + M + mean
conserved, mean = K - 2s, so 2c s' (s - mean) = 2c s' (3s - K)
= -c d/dt (2Ks - 3s^2), and

    dW/dt = -sigma <= 0.

At c = 1 this W is the H + 2Ks - 3s^2 of the paper's proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .dynamics import SystemState, TrajectoryLog
from .lattice import LatticeMeasure, mean_position
from .model import (
    ModelParams,
    check_beta_bounded,
    largest_contraction_constant,
    log_beta_array,
    rate_arrays,
)

# below this, p_n is treated as exactly zero in the entropy (floating
# point underflows where the exact solution stays positive)
P_FLOOR = 1e-300
# a W step or a Q excess up to this is round-off, not a violation
SLACK = 1e-9


@dataclass
class MonitorReport:
    violations: int
    max_violation: float
    q_max: float
    q_bound: Optional[float]   # None when the contraction condition fails
    q_bounded: bool
    mean_offset_max: float
    mean_offset_bound: Optional[float]


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
    nz = p.values > P_FLOOR
    v = p.values[nz]
    n = p.window.sites()[nz].astype(float)
    return float(np.sum(v * (np.log(v) + c * (s - n) ** 2)))


def W_value(H: float, s: float, K: float, c: float) -> float:
    """W = H + c(2Ks - 3s^2) from the entropy H at s, summed as
    (H + 2Ks*c) - 3s^2*c, so that c = 1 gives the bits of H + 2Ks - 3s^2."""
    return H + 2.0 * K * s * c - 3.0 * s * s * c


def annotate(log: TrajectoryLog) -> TrajectoryLog:
    """Fill each sample's Q, H, and W from that H and K(0), in place."""
    params, K0 = log.params, log.samples[0].K
    for smp in log.samples:
        smp.Q = Q_value(params, smp.state)
        smp.H = entropy_H(smp.state.p, smp.state.s, params.c)
        smp.W = W_value(smp.H, smp.state.s, K0, params.c)
    return log


def W_increases(W: Sequence[float]) -> Tuple[int, float]:
    """(count, largest) of the steps W[k+1] - W[k] that rise above SLACK
    or touch a non-finite W; the largest is over the finite rises, 0.0
    when there are none."""
    steps = [b - a for a, b in zip(W[:-1], W[1:])]
    bad = [x for x in steps if not (math.isfinite(x) and x <= SLACK)]
    return len(bad), max((x for x in bad if math.isfinite(x)), default=0.0)


def monitor(log: TrajectoryLog) -> MonitorReport:
    """Scan a trajectory for Lyapunov violations and boundedness.

    Counts sample pairs with W(t_{k+1}) > W(t_k) + SLACK, and checks the
    a-priori bounds: Q(t) <= max(Q(0), sup_beta/(2C) + 2e sup_beta^2)
    whenever the contraction constant C of the profile is positive, and
    |mean - s| <= Q / inf_beta.
    """
    params = log.params
    if any(s.W is None for s in log.samples):
        annotate(log)
    samples = log.samples
    violations, max_violation = W_increases([s.W for s in samples])

    window = log.window
    _, sup_beta = check_beta_bounded(params.beta, window)
    C = largest_contraction_constant(params.beta, window)
    q_vals = np.array([s.Q for s in samples])
    q_max = float(q_vals.max())
    if C > 0:
        q_bound = max(samples[0].Q, sup_beta / (2.0 * C) + 2.0 * math.e * sup_beta**2)
        q_bounded = bool(q_max <= q_bound + SLACK)
    else:
        q_bound = None
        q_bounded = bool(np.isfinite(q_vals).all())

    log_beta = log_beta_array(params.beta, window.n_min - 1, window.n_max + 1)
    inf_beta = float(np.exp(log_beta.min()))
    offsets = np.array([abs(mean_position(s.state.p) - s.state.s) for s in samples])
    mean_offset_bound = q_max / inf_beta if inf_beta > 0 else None

    return MonitorReport(
        violations=violations,
        max_violation=max_violation,
        q_max=q_max,
        q_bound=q_bound,
        q_bounded=q_bounded,
        mean_offset_max=float(offsets.max()),
        mean_offset_bound=mean_offset_bound,
    )
