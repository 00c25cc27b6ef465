"""Integration of the coupled measure/(L, M) system on a finite window.

Three integrators are provided:

* "rk4"       -- fixed-step classical Runge-Kutta on the full state;
* "rk45"      -- adaptive embedded Runge-Kutta (scipy) with PI step control;
* "splitting" -- Strang splitting: the (L, M) half-steps use the exact
                 flow with the measure frozen (a scalar linear ODE in
                 exp(-cL) resp. exp(cM)), and the measure step uses the
                 exact propagator of the frozen birth-death generator via
                 the symmetric-tridiagonal eigendecomposition of its
                 detailed-balance symmetrization.

The explicit methods are limited by the stiffness of the truncated
generator (diagonal entries grow like exp(c|n|)), so the splitting method
is the one that can run wide windows; it is second order in the step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    NotMeanReverting,
    PositivityLost,
    RateOverflow,
    StepSizeUnderflow,
)
from .lattice import LatticeMeasure, Window, mean_position
from .model import ModelParams, beta_array, rate_arrays

MASS_TOL = 1e-9
NEG_TOL = 1e-9
BOUNDARY_WARN = 1e-8


@dataclass(frozen=True)
class SystemState:
    """
    (p, L, M) at time t; s and d are derived coordinates.
    """

    p: LatticeMeasure
    L: float
    M: float
    t: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.L) and math.isfinite(self.M)):
            raise ValueError("L, M must be finite")

    @property
    def s(self) -> float:
        return 0.5 * (self.L + self.M)

    @property
    def d(self) -> float:
        return 0.5 * (self.L - self.M)

    @property
    def window(self) -> Window:
        return self.p.window


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "splitting"  # splitting | rk4 | rk45
    dt_init: float = 1e-3
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    t_samples: Optional[Sequence[float]] = None
    n_samples: int = 201

    def __post_init__(self):
        if self.method not in ("splitting", "rk4", "rk45"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if not (self.dt_init > 0 and self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("dt_init and tolerances must be positive")


@dataclass
class TrajectorySample:
    t: float
    state: SystemState
    K: float
    mass: float
    boundary_mass: float
    min_p: float
    Q: Optional[float] = None
    H: Optional[float] = None
    W: Optional[float] = None


@dataclass
class TrajectoryLog:
    params: ModelParams
    samples: List[TrajectorySample] = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    @property
    def window(self) -> Window:
        return self.samples[0].state.window

    def final(self) -> SystemState:
        return self.samples[-1].state


def _rhs(params, window, p, L, M) -> Tuple[np.ndarray, float, float]:
    lam, mu = rate_arrays(params, L, M, window)
    dp = -(lam + mu) * p
    dp[1:] += lam[:-1] * p[:-1]
    dp[:-1] += mu[1:] * p[1:]
    dL = -float(np.dot(p, lam)) + params.C_lambda
    dM = float(np.dot(p, mu)) - params.C_mu
    return dp, dL, dM


def rhs(params: ModelParams, state: SystemState) -> Tuple[np.ndarray, float, float]:
    """(dp, dL, dM) of the truncated system; sum(dp) = 0 in exact arithmetic."""
    return _rhs(params, state.window, state.p.values, state.L, state.M)


def rhs_sd(params: ModelParams, state: SystemState) -> Tuple[np.ndarray, float, float]:
    """(dp, ds, dd) in the (s, d) coordinates, where exp(c*d) multiplies
    a generator that depends on s only.  Requires C_lambda = C_mu."""
    if not params.mean_reverting:
        raise NotMeanReverting(
            "the (s, d) form assumes C_lambda = C_mu (there are no fixed points otherwise)"
        )
    c = params.c
    s, d = state.s, state.d
    n = state.window.sites().astype(float)
    w = state.window
    a = beta_array(params.beta, w.n_min, w.n_max) * np.exp(c * (s - n))
    b = beta_array(params.beta, w.n_min - 1, w.n_max - 1) * np.exp(c * (n - s))
    a[-1] = 0.0  # window truncation, as in rhs
    b[0] = 0.0
    ecd = math.exp(c * d)
    p = state.p.values
    dp = -ecd * (a + b) * p
    dp[1:] += ecd * a[:-1] * p[:-1]
    dp[:-1] += ecd * b[1:] * p[1:]
    sum_a = float(np.dot(p, a))
    sum_b = float(np.dot(p, b))
    ds = -0.5 * ecd * (sum_a - sum_b)
    dd = -0.5 * ecd * (sum_a + sum_b) + params.C_lambda
    return dp, ds, dd


def conserved_K(state: SystemState) -> float:
    """K = L + M + sum n p_n, conserved when C_lambda = C_mu."""
    return state.L + state.M + mean_position(state.p)


# ---------------------------------------------------------------------------
# splitting integrator pieces


class _Workspace:
    """Per-run constants of the splitting stepper: site coordinates and the
    L/M-independent rate factors bn*e^{-cn} (right edge zeroed) and
    b(n-1)*e^{cn} (left edge zeroed)."""

    def __init__(self, params, window):
        c = params.c
        self.n = window.sites().astype(float)
        bn = beta_array(params.beta, window.n_min, window.n_max)
        bnm1 = beta_array(params.beta, window.n_min - 1, window.n_max - 1)
        self.a_vec = bn * np.exp(-c * self.n)
        self.a_vec[-1] = 0.0
        self.b_vec = bnm1 * np.exp(c * self.n)
        self.b_vec[0] = 0.0


def _zflow(params, ws, p, L, M, h):
    """Exact (L, M) flow over time h with the measure frozen."""
    c = params.c
    A = float(np.dot(p, ws.a_vec))
    B = float(np.dot(p, ws.b_vec))
    # u = e^{-cL}: u' = c(A - C_lambda u); v = e^{cM}: v' = c(B - C_mu v)
    u = math.exp(-c * L)
    v = math.exp(c * M)
    eL = math.exp(-c * params.C_lambda * h)
    eM = math.exp(-c * params.C_mu * h)
    u = A / params.C_lambda + (u - A / params.C_lambda) * eL
    v = B / params.C_mu + (v - B / params.C_mu) * eM
    if not (u > 0 and v > 0):
        raise RateOverflow("(L, M) flow left the representable range")
    return -math.log(u) / c, math.log(v) / c


def _pflow(params, ws, p, L, M, h):
    """Exact measure step over time h with (L, M) frozen.

    The truncated generator is reversible with respect to the discrete
    Gaussian centered at s = (L+M)/2; conjugating by its square root
    yields a symmetric tridiagonal matrix whose eigendecomposition gives
    the propagator.  Off-diagonal entries sqrt(lambda_n mu_{n+1}) stay
    bounded even when the diagonal is huge at the window edges.
    """
    c = params.c
    lam = ws.a_vec * math.exp(c * L)
    mu = ws.b_vec * math.exp(-c * M)
    if not (np.isfinite(lam).all() and np.isfinite(mu).all()):
        raise RateOverflow("jump rates overflowed on the window")
    diag = -(lam + mu)
    off = np.sqrt(lam[:-1] * mu[1:])
    s_bar = 0.5 * (L + M)
    expo = 0.5 * c * (ws.n - s_bar) ** 2
    # q = p / sqrt(pi): guard the conjugation against overflow; sites with
    # a huge weight must carry (essentially) no mass.
    big = expo > 700.0
    if big.any() and np.abs(p[big]).max() > 1e-250:
        raise RateOverflow("measure mass too far from (L+M)/2 for the window")
    q = np.zeros_like(p)
    small = ~big
    q[small] = p[small] * np.exp(expo[small])
    w, U = eigh_tridiagonal(diag, off, lapack_driver="stev", check_finite=False)
    r = U @ (np.exp(w * h) * (U.T @ q))
    out = np.zeros_like(p)
    out[small] = r[small] * np.exp(-expo[small])
    return out


def _strang_step(params, ws, p, L, M, h):
    L, M = _zflow(params, ws, p, L, M, 0.5 * h)
    p = _pflow(params, ws, p, L, M, h)
    L, M = _zflow(params, ws, p, L, M, 0.5 * h)
    return p, L, M


# ---------------------------------------------------------------------------
# explicit steppers


def _rhs_flat(params, window, y):
    size = window.size
    dp, dL, dM = _rhs(params, window, y[:size], y[size], y[size + 1])
    return np.concatenate([dp, [dL, dM]])


def _rk4_advance(params, window, y, t_span, dt):
    t0, t1 = t_span
    n_steps = max(1, int(math.ceil((t1 - t0) / dt)))
    h = (t1 - t0) / n_steps
    for _ in range(n_steps):
        k1 = _rhs_flat(params, window, y)
        k2 = _rhs_flat(params, window, y + 0.5 * h * k1)
        k3 = _rhs_flat(params, window, y + 0.5 * h * k2)
        k4 = _rhs_flat(params, window, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def _check_explicit_stability(params, state, dt):
    lam, mu = rate_arrays(params, state.L, state.M, state.window)
    max_diag = float((lam + mu).max())
    if dt * max_diag >= 0.5:
        raise StepSizeUnderflow(
            f"dt_init * max generator diagonal = {dt * max_diag:g} >= 0.5; "
            "narrow the window or use the splitting method"
        )


def _sample_times(state0, T, config):
    if config.t_samples is not None:
        ts = np.asarray(sorted(set(float(t) for t in config.t_samples)))
        if ts[0] < state0.t - 1e-12 or ts[-1] > state0.t + T + 1e-12:
            raise ValueError("t_samples outside the integration interval")
    else:
        ts = np.linspace(state0.t, state0.t + T, max(2, config.n_samples))
    if abs(ts[0] - state0.t) > 1e-12:
        ts = np.concatenate([[state0.t], ts])
    if abs(ts[-1] - (state0.t + T)) > 1e-12:
        ts = np.concatenate([ts, [state0.t + T]])
    return ts


def integrate(
    params: ModelParams, state0: SystemState, T: float, config: IntegratorConfig
) -> TrajectoryLog:
    """Integrate the system over [t0, t0 + T], sampling diagnostics.

    At each sample the conserved K, total mass and boundary mass are
    recorded from the raw (unclipped) measure; tiny negatives are then
    clipped and the measure renormalized once per sample.  Raises
    PositivityLost / StepSizeUnderflow on tolerance violations and
    RateOverflow when (L, M) leaves the range representable on the window
    (the no-explosion bounds L <= L0 + C_lambda*t, M >= M0 - C_mu*t say
    how far that can go).
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    window = state0.window
    log = TrajectoryLog(params=params)

    def record(t, p_raw, L, M):
        mass = float(p_raw.sum())
        min_p = float(p_raw.min())
        if min_p < -NEG_TOL:
            raise PositivityLost(f"negative mass {min_p:g} at t={t:g}")
        if abs(mass - 1.0) > MASS_TOL:
            raise StepSizeUnderflow(f"mass drift {mass - 1.0:g} at t={t:g}")
        boundary = float(abs(p_raw[0]) + abs(p_raw[-1]))
        if boundary > BOUNDARY_WARN:
            warnings.warn(
                f"boundary mass {boundary:g} above {BOUNDARY_WARN:g} at t={t:g}; "
                "the window may be too narrow",
                RuntimeWarning,
                stacklevel=3,
            )
        measure = LatticeMeasure.normalized(window, p_raw)
        state = SystemState(p=measure, L=L, M=M, t=t)
        K_raw = L + M + float(np.dot(window.sites().astype(float), p_raw))
        log.samples.append(
            TrajectorySample(
                t=t, state=state, K=K_raw, mass=mass,
                boundary_mass=boundary, min_p=min_p,
            )
        )
        return measure.values.copy()

    ts = _sample_times(state0, T, config)
    p = record(ts[0], state0.p.values.copy(), state0.L, state0.M)
    if T == 0 or len(ts) == 1:
        return log
    L, M = state0.L, state0.M

    if config.method == "splitting":
        ws = _Workspace(params, window)
        for t_lo, t_hi in zip(ts[:-1], ts[1:]):
            span = t_hi - t_lo
            n_steps = max(1, int(math.ceil(span / config.dt_init)))
            h = span / n_steps
            for _ in range(n_steps):
                p, L, M = _strang_step(params, ws, p, L, M, h)
            p = record(t_hi, p, L, M)
    elif config.method == "rk4":
        _check_explicit_stability(params, state0, config.dt_init)
        y = np.concatenate([p, [L, M]])
        for t_lo, t_hi in zip(ts[:-1], ts[1:]):
            y = _rk4_advance(params, window, y, (t_lo, t_hi), config.dt_init)
            clipped = record(t_hi, y[: window.size], y[window.size], y[window.size + 1])
            y[: window.size] = clipped
    else:  # rk45
        from scipy.integrate import solve_ivp

        _check_explicit_stability(params, state0, config.dt_init)
        y = np.concatenate([p, [L, M]])
        for t_lo, t_hi in zip(ts[:-1], ts[1:]):
            sol = solve_ivp(
                lambda t, yy: _rhs_flat(params, window, yy),
                (t_lo, t_hi),
                y,
                method="RK45",
                rtol=config.rel_tol,
                atol=config.abs_tol,
                first_step=min(config.dt_init, t_hi - t_lo),
            )
            if not sol.success:
                raise StepSizeUnderflow(f"adaptive step failed: {sol.message}")
            y = sol.y[:, -1]
            clipped = record(t_hi, y[: window.size], y[window.size], y[window.size + 1])
            y[: window.size] = clipped
    return log


def explosion_monitor_ok(log: TrajectoryLog, slack: float = 1e-7) -> bool:
    """No-explosion bounds L(t) <= L0 + C_lambda*t, M(t) >= M0 - C_mu*t."""
    s0 = log.samples[0]
    for s in log.samples:
        dt = s.t - s0.t
        if s.state.L > s0.state.L + log.params.C_lambda * dt + slack:
            return False
        if s.state.M < s0.state.M - log.params.C_mu * dt - slack:
            return False
    return True
