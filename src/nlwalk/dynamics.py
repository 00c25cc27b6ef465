"""Integration of the coupled measure/(L, M) system on a finite window.

`integrate` takes adaptive, Richardson-extrapolated Strang steps.  A
Strang step S_h runs the (L, M) half-steps on the exact flow with the
measure frozen (a scalar linear ODE in exp(-cL) resp. exp(cM)), and the
measure step on the exact propagator of the frozen birth-death generator
via the symmetric-tridiagonal eigendecomposition of its detailed-balance
symmetrization: LAPACK dstev, called directly (eigh_tridiagonal below),
and scipy is loaded by the first eigensolve, not on import.  S_h is
symmetric, so its error has odd powers of h only, and
(4 S_{h/2}^2 - S_h) / 3 is of order 4; S_{h/2}^2 - S_h estimates the
error that sets the next step.

All rates come from model.rate_arrays.  The steps use the rates at
L = M = ref, the window centre ref = (n_min + n_max) / 2, since
lambda(L) = lambda(ref) e^{c(L - ref)} and mu(M) = mu(ref) e^{-c(M - ref)};
they carry L - ref, M - ref and the sites minus ref, and ref is added
back at each sample.  That table must stay within exp(EXP_LIMIT), so a
window with c * (n_max - n_min) / 2 > EXP_LIMIT raises RateOverflow
before the first step.

Each sample interval's steps run on a band of sites, [lo, hi), chosen at
its start; the full window is the band [0, N).  Its core drops the
longest prefix and suffix whose mass, weighted as p_n (1 + (lambda_n +
mu_n) dt) so that the flow's sums p.a and p.b lose no more, is within
TRUNC_TOL / 4 each; the dropped sites are set to 0.  Past each core edge
that is not the window edge, a margin of the fewest r sites with
(Lambda dt)^r / r! <= TRUNC_TOL / 4 follows, Lambda being the largest
outward rate (lambda on the right, mu on the left) over the margin sites:
a walker leaves the band only by r outward jumps from margin sites, so
that Poisson tail bounds the mass it loses.  The rates are bounded over
the interval through the no-explosion bounds L <= L0 + C_lambda dt,
M >= M0 - C_mu dt.  An interior band edge keeps its outward rate on the
diagonal, so it is a killing edge, and the dropped mass plus the two leak
bounds, at most TRUNC_TOL, is the interval's computed truncation error.
Last, the band widens until its two end rates are ordered as the
window's, so that the eigensolver sweeps it in the same direction (see
_band).  Sites off the band hold exactly 0, so the boundary mass reads 0
while the band stays off the window edges.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import NumericalError, PositivityLost, RateOverflow, StepSizeUnderflow
from .lattice import LatticeMeasure, Window
from .model import EXP_LIMIT, ModelParams, check_rate_exponents, rate_arrays

MASS_TOL = 1e-9
NEG_TOL = 1e-9
TRUNC_TOL = 1e-15  # mass an interval's band may drop or leak
_QUARTER_TOL = 0.25 * TRUNC_TOL  # each of the two dropped runs and leaks
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
    # the first trial step
    dt_init: float = 1e-3
    # a step is accepted when its error estimate is within rel_tol in
    # |delta p|_1 (p has mass 1), and in c*|delta L| and c*|delta M| (the
    # relative error of e^{cL}, e^{-cM})
    rel_tol: float = 1e-8
    n_samples: int = 201

    def __post_init__(self):
        for v in (self.dt_init, self.rel_tol):
            if not (v > 0 and math.isfinite(v)):
                raise ValueError("dt_init and rel_tol must be positive and finite")
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")


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
    steps: int = 0  # accepted steps
    rejected_steps: int = 0
    band_max: int = 0  # widest band an interval ran on (0: no interval)
    truncation_max: float = 0.0  # largest dropped mass plus leak bound

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    @property
    def window(self) -> Window:
        return self.samples[0].state.window

    def final(self) -> SystemState:
        return self.samples[-1].state


def rhs(params: ModelParams, state: SystemState) -> Tuple[np.ndarray, float, float]:
    """(dp, dL, dM) of the truncated system; sum(dp) = 0 in exact arithmetic."""
    p = state.p.values
    lam, mu = rate_arrays(params, state.L, state.M, state.window)
    dp = -(lam + mu) * p
    dp[1:] += lam[:-1] * p[:-1]
    dp[:-1] += mu[1:] * p[1:]
    dL = -float(np.dot(p, lam)) + params.C_lambda
    dM = float(np.dot(p, mu)) - params.C_mu
    return dp, dL, dM


def conserved_K(state: SystemState) -> float:
    """K = L + M + sum n p_n, conserved when C_lambda = C_mu; the positions
    are summed from the window centre ref, as integrate records K."""
    ref = 0.5 * (state.window.n_min + state.window.n_max)
    return state.L + state.M + ref + float(np.dot(state.window.sites() - ref, state.p.values))


_lapack = None  # scipy.linalg.lapack, bound by the first eigensolve


def eigh_tridiagonal(diag, off):
    """(w, U): the eigenvalues and the orthonormal eigenvectors (columns of
    U) of the symmetric tridiagonal matrix with diagonal diag and
    off-diagonal off, by LAPACK dstev (implicit QL/QR), called directly:
    scipy's eigh_tridiagonal(..., lapack_driver="stev") reaches the same
    routine with the same arguments after its checks.  scipy.linalg.lapack
    is imported and bound on the first call, so that commands which solve
    no eigenproblem do not load scipy; dstev is looked up on it at each
    call.  dstev refuses a single site; every band has at least two.
    """
    global _lapack
    if _lapack is None:
        from scipy.linalg import lapack

        _lapack = lapack
    w, U, info = _lapack.dstev(diag, off, compute_v=1)
    if info != 0:
        raise NumericalError(
            f"tridiagonal eigensolver did not converge (dstev info={info})"
        )
    return w, U


# ---------------------------------------------------------------------------
# splitting steps, in coordinates relative to the window centre ref: L, M
# and the sites n stand for L - ref, M - ref and n - ref, and a_vec, b_vec
# are the rates at L = M = ref, whose maxima a_max, b_max are taken once per
# sample interval


def _zflow(params, A, B, L, M, h):
    """Exact (L, M) flow over time h with the measure frozen; A = p.a and
    B = p.b are the frozen measure's rate sums."""
    c = params.c
    if max(abs(c * L), abs(c * M)) > EXP_LIMIT:
        raise RateOverflow(
            f"barrier exponent out of range (L={L}, M={M} from the window "
            f"centre, c={c})"
        )
    # u = e^{-cL}: u' = c(A - C_lambda u); v = e^{cM}: v' = c(B - C_mu v).
    # Both terms of each update are positive, so no digits cancel when
    # A / C_lambda or B / C_mu is much larger than u or v.
    xL = c * params.C_lambda * h
    xM = c * params.C_mu * h
    u = math.exp(-c * L) * math.exp(-xL) - A / params.C_lambda * math.expm1(-xL)
    v = math.exp(c * M) * math.exp(-xM) - B / params.C_mu * math.expm1(-xM)
    if not (u > 0 and v > 0):
        raise RateOverflow("(L, M) flow left the representable range")
    return -math.log(u) / c, math.log(v) / c


def _pflow(params, a_vec, b_vec, n, p, L, M, h, a_max, b_max):
    """Exact measure step over time h with (L, M) frozen.

    The truncated generator is reversible with respect to the discrete
    Gaussian centered at s = (L+M)/2; conjugating by its square root
    yields a symmetric tridiagonal matrix whose eigendecomposition gives
    the propagator.  Off-diagonal entries sqrt(lambda_n mu_{n+1}) stay
    bounded even when the diagonal is huge at the window edges.
    """
    c = params.c
    up, down = math.exp(c * L), math.exp(-c * M)
    # the largest rate overflows exactly when some rate does (scalar
    # products, so no floating-point warning)
    if math.isinf(a_max * up) or math.isinf(b_max * down):
        raise RateOverflow("jump rates overflowed on the window")
    lam = a_vec * up
    mu = b_vec * down
    off = lam[:-1] * mu[1:]
    np.sqrt(off, out=off)
    diag = lam + mu
    np.negative(diag, out=diag)
    expo = n - 0.5 * (L + M)
    np.square(expo, out=expo)
    expo *= 0.5 * c
    # guard the conjugation against overflow: sites with a huge weight must
    # carry (essentially) no mass; they enter it with p = expo = 0 and
    # read 0 after it.  (n - s)^2 is largest at a band end, and rounding
    # keeps that order, so the ends tell whether any site is such
    far = max(expo[0], expo[-1]) > EXP_LIMIT
    if far:
        big = expo > EXP_LIMIT
        if np.abs(p[big]).max() > 1e-250:
            raise RateOverflow("measure mass too far from (L+M)/2 for the window")
        p = np.where(big, 0.0, p)
        expo[big] = 0.0
    w, U = eigh_tridiagonal(diag, off)
    # q = p / sqrt(pi)
    q = np.exp(expo)
    q *= p
    w *= h
    np.exp(w, out=w)
    w *= U.T @ q
    out = U @ w
    np.negative(expo, out=expo)
    out *= np.exp(expo, out=expo)
    if far:
        out[big] = 0.0
    return out


def _strang_step(params, a_vec, b_vec, n, p, A, B, L, M, h, a_max, b_max):
    """S_h applied to (p, L, M), A = p.a and B = p.b being p's rate sums:
    (p, L, M, A, B) after it, with the new p's sums."""
    L, M = _zflow(params, A, B, L, M, 0.5 * h)
    p = _pflow(params, a_vec, b_vec, n, p, L, M, h, a_max, b_max)
    A, B = float(np.dot(p, a_vec)), float(np.dot(p, b_vec))
    L, M = _zflow(params, A, B, L, M, 0.5 * h)
    return p, L, M, A, B


def _extrapolated_step(params, a_vec, b_vec, n, p, L, M, h, config, a_max, b_max):
    """(p, L, M, err): (4 S_{h/2}^2 - S_h) / 3 applied to (p, L, M), and
    the error of the Strang step in units of rel_tol (accept when
    err <= 1; nan when a norm is not finite).  The weights sum to 1, so
    the extrapolation keeps the mass.  Each of the four measures met (p,
    the outputs of S_h and of each S_{h/2}) has its rate sums formed once."""
    args = (params, a_vec, b_vec, n)
    A, B = float(np.dot(p, a_vec)), float(np.dot(p, b_vec))
    p1, L1, M1, _, _ = _strang_step(*args, p, A, B, L, M, h, a_max, b_max)
    p2, L2, M2, A, B = _strang_step(*args, p, A, B, L, M, 0.5 * h, a_max, b_max)
    p2, L2, M2, _, _ = _strang_step(*args, p2, A, B, L2, M2, 0.5 * h, a_max, b_max)
    diff = p2 - p1
    err_p = float(np.abs(diff, out=diff).sum())
    err_z = params.c * max(abs(L2 - L1), abs(M2 - M1))
    err = max(err_p, err_z) / (3.0 * config.rel_tol)
    if not math.isfinite(err_p + err_z):  # max(x, nan) is x
        err = math.nan
    p2 *= 4.0
    p2 -= p1
    p2 /= 3.0
    return p2, (4.0 * L2 - L1) / 3.0, (4.0 * M2 - M1) / 3.0, err


def _splitting_advance(params, a_vec, b_vec, n, p, L, M, t_span, h, config):
    """Extrapolated Strang steps across one sample interval, starting with
    trial step h: (p, L, M, next trial step, accepted, rejected).

    No step crosses t_span[1]; a step cut short to land on it leaves the
    trial step for the next interval as it was, unless the error asks for
    a longer one."""
    t, t_hi = t_span
    h_min = 1e-12 * (t_hi - t)
    a_max, b_max = float(a_vec.max()), float(b_vec.max())
    accepted = rejected = 0
    while t < t_hi:
        if h < h_min:
            raise StepSizeUnderflow(f"step {h:g} below {h_min:g} at t={t:g}")
        last = t + h >= t_hi - h_min
        step = t_hi - t if last else h
        p_new, L_new, M_new, err = _extrapolated_step(
            params, a_vec, b_vec, n, p, L, M, step, config, a_max, b_max
        )
        if not math.isfinite(err):
            raise StepSizeUnderflow(f"non-finite error estimate at t={t:g}")
        grow = min(5.0, max(0.2, 0.9 * err ** (-1.0 / 3.0))) if err > 0 else 5.0
        h_next = step * grow
        if err <= 1.0:
            p, L, M = p_new, L_new, M_new
            t = t_hi if last else t + step
            h = max(h, h_next) if step < h else h_next
            accepted += 1
        else:
            h = h_next
            rejected += 1
    return p, L, M, h, accepted, rejected


def _margin(rates, scale, edge, stop, step):
    """(band end, leak bound): sites from the core edge outward until the
    Poisson tail x^r / r! of r outward jumps, x = scale * the largest of
    rates over those r sites, is within TRUNC_TOL / 4; (stop, 0.0) when the
    window edge comes first."""
    log_tol = math.log(_QUARTER_TOL)
    top = log_x = log_fact = 0.0
    r, i = 0, edge
    while i != stop:
        if rates[i] > top:
            top = rates[i]
            x = scale * top
            log_x = math.log(x) if x > 0.0 else -math.inf
        r += 1
        i += step
        log_fact += math.log(r)
        log_bound = r * log_x - log_fact
        if log_bound <= log_tol:
            return i, math.exp(log_bound)
    return stop, 0.0


def _dropped(values, a_list, b_list, up_dt, down_dt):
    """(sites, weighted mass) of the longest run of values, from their
    start, whose mass weighted by 1 + (lambda + mu) dt is within
    TRUNC_TOL / 4 (values are >= 0; an overflowed rate weighs inf)."""
    budget = _QUARTER_TOL
    k, total = 0, 0.0
    for v, a, b in zip(values, a_list, b_list):
        if v:  # off the last interval's band p is exactly 0
            w = total + v * (1.0 + a * up_dt + b * down_dt)
            if w > budget:
                break
            total = w
        k += 1
    return k, total


def _band(params, a_list, b_list, p, L, M, dt):
    """(lo, hi, truncation bound) of the band for a sample interval of
    length dt from (p, L, M); see the module docstring."""
    size = len(a_list)
    c = params.c
    # e^{cL} and e^{-cM} at the no-explosion bounds; out of range, the band
    # is the window and nothing is dropped
    up_exp = c * (L + params.C_lambda * dt)
    down_exp = -c * (M - params.C_mu * dt)
    if max(up_exp, down_exp) > EXP_LIMIT:
        return 0, size, 0.0
    up_dt, down_dt = math.exp(up_exp) * dt, math.exp(down_exp) * dt
    values = p.tolist()
    # the two runs cannot meet: p has mass 1, far above TRUNC_TOL / 2
    lo, dropped_lo = _dropped(values, a_list, b_list, up_dt, down_dt)
    k, dropped_hi = _dropped(
        reversed(values), reversed(a_list), reversed(b_list), up_dt, down_dt
    )
    hi = size - k
    leak_lo = leak_hi = 0.0
    if lo > 0:
        lo, leak_lo = _margin(b_list, down_dt, lo - 1, -1, -1)
        lo += 1
    if hi < size:
        hi, leak_hi = _margin(a_list, up_dt, hi, size, 1)

    # dstev's QL/QR sweeps run in the direction its two end diagonals
    # select, and p keeps its digits only if a band is swept as its window
    # is: on stiff starts a band swept the other way lost up to 1e-11 of
    # mass per measure step.  So the band widens until its end rates (times
    # dt) are ordered as the window's, whose end rates are a_0 e^{cL} and
    # b_{N-1} e^{-cM}; a wider band only leaks less.
    rate_lo = a_list[lo] * up_dt + b_list[lo] * down_dt
    rate_hi = a_list[hi - 1] * up_dt + b_list[hi - 1] * down_dt
    if b_list[-1] * down_dt >= a_list[0] * up_dt:
        while hi < size and rate_hi < rate_lo:
            rate_hi = a_list[hi] * up_dt + b_list[hi] * down_dt
            hi += 1
    else:
        while lo > 0 and rate_lo <= rate_hi:
            lo -= 1
            rate_lo = a_list[lo] * up_dt + b_list[lo] * down_dt
    return lo, hi, dropped_lo + dropped_hi + leak_lo + leak_hi


def integrate(
    params: ModelParams, state0: SystemState, T: float, config: IntegratorConfig
) -> TrajectoryLog:
    """Integrate the system over [t0, t0 + T], sampling diagnostics.

    At each sample the conserved K, total mass and boundary mass are
    recorded from the raw (unclipped) measure, with K's positions summed
    from the window centre; tiny negatives are then clipped and the
    measure renormalized once per sample.  Raises
    PositivityLost / StepSizeUnderflow on tolerance violations and
    RateOverflow when (L, M) leaves the range representable on the window,
    a start outside it before the first step (the no-explosion bounds
    L <= L0 + C_lambda*t, M >= M0 - C_mu*t say how far that can go).  Each interval's steps run on its band (see the
    module docstring); the log keeps the widest band and the largest
    truncation bound.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    window = state0.window
    log = TrajectoryLog(params=params)
    ref = 0.5 * (window.n_min + window.n_max)
    n = window.sites() - ref

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
        # positions from the window centre, so that a mass error adds
        # (mass - 1) * (n - ref), not (mass - 1) * n, to K
        K_raw = L + M + ref + float(np.dot(n, p_raw))
        log.samples.append(
            TrajectorySample(
                t=t, state=state, K=K_raw, mass=mass,
                boundary_mass=boundary, min_p=min_p,
            )
        )
        return measure.values.copy()

    # Python floats keep the per-interval scalar work (_band) fast
    ts = np.linspace(state0.t, state0.t + T, config.n_samples).tolist()
    p = record(ts[0], state0.p.values.copy(), state0.L, state0.M)
    if T == 0:
        return log
    # a start whose own rates are out of range is refused before any step
    check_rate_exponents(params, state0.L, state0.M, window)
    a_vec, b_vec = rate_arrays(params, ref, ref, window)
    if not (np.isfinite(a_vec).all() and np.isfinite(b_vec).all()):
        raise RateOverflow("jump rates overflowed on the window")
    a_list, b_list = a_vec.tolist(), b_vec.tolist()
    L, M, h = state0.L - ref, state0.M - ref, config.dt_init
    for t_lo, t_hi in zip(ts[:-1], ts[1:]):
        lo, hi, bound = _band(params, a_list, b_list, p, L, M, t_hi - t_lo)
        band, L, M, h, accepted, rejected = _splitting_advance(
            params, a_vec[lo:hi], b_vec[lo:hi], n[lo:hi], p[lo:hi], L, M,
            (t_lo, t_hi), h, config,
        )
        p = np.zeros(p.size)
        p[lo:hi] = band
        log.band_max = max(log.band_max, hi - lo)
        log.truncation_max = max(log.truncation_max, bound)
        log.steps += accepted
        log.rejected_steps += rejected
        p = record(t_hi, p, L + ref, M + ref)
    return log
