"""Explicit fixed points, the conserved-level inversion K -> s*, the
partition function Xi and detailed-balance verification.

For C_lambda = C_mu the fixed points form a one-parameter family
(s, pi_s, L_s = s + d, M_s = s - d) with pi_s the discrete Gaussian
centered at s and

    d = (1/c) * ln[ C_lambda * Xi / sum_k beta(k) exp(-c(k-s)^2 - c(k-s)) ].

The level value F(s) = 2s + mean(pi_s) satisfies the exact shift identity
F(s+1) = F(s) + 3, so every level K contains exactly one fixed point and
the bracket [K/3 - 1, K/3 + 1] always contains it.  solve_s_from_K
bisects that bracket to float width: on the README config it returns the
s* whose K_of_s is within 1e-16 of K0 = 0.9.  What is left of the
distance between a simulated measure and pi_s* is then the integrator's:
the `tv_final` of README `simulate`, about 8.3e-11, is almost all
integration error and scales with `rel_tol`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoFixedPoint, NumericalError, WindowTooNarrow
from .lattice import LatticeMeasure, Window
from .model import ModelParams, log_beta_array, rate_arrays


@dataclass(frozen=True)
class FixedPoint:
    s: float
    d: float
    L_s: float
    M_s: float
    pi: LatticeMeasure
    Xi: float


def _gaussian(c: float, s: float):
    """(n, g, Xi): the sites n within R of floor(s + 1/2), R the least
    integer with c(R^2 - 1/4) >= 40, their terms g = exp(-c(n-s)^2) and
    Xi = fsum(g).  Every site left out has a term below e^-40 of the
    largest, even under a weight that moves the peak by up to half a site.

    Raises NumericalError when |s| >= 2^52, where float spacing is at
    least 1 and the sites near s are no longer distinct; when c < 1e-9,
    whose Gaussian spans more than 4e5 sites; and when every term
    underflows (c(n - s)^2 > 745 on all sites), as a huge c does for s
    off the lattice."""
    if not abs(s) < 2.0**52:
        raise NumericalError(f"s = {s} is beyond the lattice resolution of a float")
    if not c >= 1e-9:
        raise NumericalError(f"c = {c} is below 1e-9: the Gaussian spans too many sites")
    reach = math.ceil(math.sqrt(40.0 / c + 0.25))
    m = math.floor(s + 0.5)
    n = np.arange(m - reach, m + reach + 1)
    g = np.exp(-c * (n - s) ** 2)
    xi = math.fsum(g)
    if not xi > 0:
        raise NumericalError(f"discrete Gaussian underflowed on every site (c={c}, s={s})")
    return n, g, xi


def partition_Xi(c: float, s: float) -> float:
    """Normalization of the discrete Gaussian: sum_n exp(-c(n-s)^2) by
    direct truncated summation (no theta-function identities).  Raises
    NumericalError for c < 1e-9 and when every term underflows."""
    return _gaussian(c, s)[2]


def _on_window(c: float, s: float, window: Window, n, g, xi: float) -> LatticeMeasure:
    off = math.fsum(g[(n < window.n_min) | (n > window.n_max)])
    if off > 1e-12 * xi:
        raise WindowTooNarrow(f"off-window mass {off / xi:g} above 1e-12 for s={s}, c={c}")
    vals = np.exp(-c * (window.sites().astype(float) - s) ** 2)
    return LatticeMeasure(window, vals / float(vals.sum()))


def discrete_gaussian(c: float, s: float, window: Window) -> LatticeMeasure:
    """Normalized discrete Gaussian on the window.

    Raises WindowTooNarrow when more than 1e-12 of the full-lattice mass
    falls off-window.
    """
    return _on_window(c, s, window, *_gaussian(c, s))


def fixed_point(params: ModelParams, s: float, window: Window) -> FixedPoint:
    """Member of the fixed-point family at parameter s.

    The denominator's exponents e = log beta(k) - c(k-s)(k-s+1) peak
    within half a site of s - 1/2 (the Gaussian's peak; beta moves it by
    up to half a site more), so they are summed over the sites of s - 1/2,
    shifted by their maximum before exp: no factor over- or underflows for
    any c, however far beta(k) itself is below the float range."""
    if not params.mean_reverting:
        raise NoFixedPoint(
            f"C_lambda={params.C_lambda} != C_mu={params.C_mu}: there are no fixed points"
        )
    c = params.c
    n, g, xi = _gaussian(c, s)
    k = n - (math.floor(s + 0.5) - math.floor(s))  # the same reach around floor(s)
    log_beta = log_beta_array(params.beta, int(k[0]), int(k[-1]))
    e = log_beta - c * (k - s) * (k - s + 1.0)
    e_max = float(e.max())
    denom = math.fsum(np.exp(e - e_max))
    d = (math.log(params.C_lambda) + math.log(xi) - e_max - math.log(denom)) / c
    pi = _on_window(c, s, window, n, g, xi)
    return FixedPoint(s=s, d=d, L_s=s + d, M_s=s - d, pi=pi, Xi=xi)


def K_of_s(params: ModelParams, s: float) -> float:
    """Level value of the fixed point at s: F(s) = 2s + mean(pi_s)."""
    n, g, xi = _gaussian(params.c, s)
    return 2.0 * s + math.fsum(n * g) / xi


def solve_s_from_K(params: ModelParams, K: float) -> float:
    """The unique s* with K_of_s(s*) = K, to float width.

    Bisection on [K/3 - 1, K/3 + 1], valid because F(s) - 3s is 1-periodic
    (shift identity) with |F(s) - 3s| < 1.  It halves the bracket until the
    midpoint hits K exactly or equals an end, then returns the end with the
    smaller residual.  Raises NumericalError if the ends do not straddle K.
    """
    lo, hi = K / 3.0 - 1.0, K / 3.0 + 1.0
    f_lo, f_hi = K_of_s(params, lo) - K, K_of_s(params, hi) - K
    if not f_lo <= 0.0 <= f_hi:
        raise NumericalError(f"K = {K}: K_of_s does not straddle it on [{lo}, {hi}]")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        f = K_of_s(params, mid) - K
        if f == 0.0:
            return mid
        if f < 0.0:
            lo, f_lo = mid, f
        else:
            hi, f_hi = mid, f
        mid = 0.5 * (lo + hi)
    return lo if -f_lo <= f_hi else hi


def detailed_balance_residual(params: ModelParams, fp: FixedPoint) -> float:
    """max_n |pi(n) lambda_n - pi(n+1) mu_{n+1}| / (pi(n) lambda_n)."""
    lam, mu = rate_arrays(params, fp.L_s, fp.M_s, fp.pi.window)
    pi = fp.pi.values
    forward = pi[:-1] * lam[:-1]
    backward = pi[1:] * mu[1:]
    nz = forward > 0.0
    if not nz.any():
        return 0.0
    res = np.abs(forward[nz] - backward[nz]) / forward[nz]
    return float(res.max())
