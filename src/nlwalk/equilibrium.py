"""Explicit fixed points, the conserved-level inversion K -> s*, the
partition function Xi and detailed-balance verification.

For C_lambda = C_mu the fixed points form a one-parameter family
(s, pi_s, L_s = s + d, M_s = s - d) with pi_s the discrete Gaussian
centered at s and

    d = (1/c) * ln[ C_lambda * Xi / sum_k beta(k) exp(-c(k-s)^2 - c(k-s)) ].

The level value F(s) = 2s + mean(pi_s) satisfies the exact shift identity
F(s+1) = F(s) + 3, so every level K contains exactly one fixed point and
the bracket [K/3 - 1, K/3 + 1] always contains it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoFixedPoint, NumericalError, WindowTooNarrow
from .lattice import LatticeMeasure, Window
from .model import ModelParams, eval_beta, rate_arrays

# gaussian_sum stops once both outward terms fall below this fraction of
# the accumulated absolute scale
SUM_EPS = 1e-16
# solve_s_from_K accepts s once |K_of_s(s) - K| is below this
K_TOL = 1e-11


@dataclass(frozen=True)
class FixedPoint:
    s: float
    d: float
    L_s: float
    M_s: float
    pi: LatticeMeasure
    Xi: float


def gaussian_sum(c: float, s: float, weight=None) -> float:
    """sum_n w(n) exp(-c(n-s)^2), summed outward from round(s) with
    compensated accumulation, stopping when both directions fall below
    SUM_EPS times the accumulated absolute scale (the signed sum can be
    near zero, e.g. for the first-moment weight).  w defaults to 1.

    Raises NumericalError when |s| >= 2^52, where float spacing is at
    least 1 and the sites near s are no longer distinct, or when the sum
    does not converge."""
    if not abs(s) < 2.0**52:
        raise NumericalError(f"s = {s} is beyond the lattice resolution of a float")
    center = int(round(s))

    def term(n):
        t = math.exp(-c * (n - s) ** 2)
        return t * weight(n) if weight is not None else t

    terms = [term(center)]
    scale = abs(terms[0]) + 1e-300
    for k in range(1, 100000):
        up = term(center + k)
        down = term(center - k)
        terms.append(up)
        terms.append(down)
        scale += abs(up) + abs(down)
        if abs(up) < SUM_EPS * scale and abs(down) < SUM_EPS * scale:
            return math.fsum(terms)
    raise NumericalError(f"gaussian sum failed to converge (c={c}, s={s})")


def partition_Xi(c: float, s: float) -> float:
    """Normalization of the discrete Gaussian: sum_n exp(-c(n-s)^2) by
    direct truncated summation (no theta-function identities).  Raises
    NumericalError when every term underflows (c(n - s)^2 > 745 on all
    sites), as a huge c does for s off the lattice."""
    xi = gaussian_sum(c, s)
    if not xi > 0:
        raise NumericalError(f"discrete Gaussian underflowed on every site (c={c}, s={s})")
    return xi


def discrete_gaussian(c: float, s: float, window: Window) -> LatticeMeasure:
    """Normalized discrete Gaussian on the window.

    Raises WindowTooNarrow when more than 1e-12 of the full-lattice mass
    falls off-window.
    """
    xi = partition_Xi(c, s)
    n = window.sites().astype(float)
    vals = np.exp(-c * (n - s) ** 2)
    inside = float(vals.sum())
    if xi - inside > 1e-12 * xi:
        raise WindowTooNarrow(
            f"off-window mass {(xi - inside) / xi:g} above 1e-12 for s={s}, c={c}"
        )
    return LatticeMeasure(window, vals / inside)


def _require_mean_reverting(params: ModelParams) -> None:
    if not params.mean_reverting:
        raise NoFixedPoint(
            f"C_lambda={params.C_lambda} != C_mu={params.C_mu}: there are no fixed points"
        )


def fixed_point(params: ModelParams, s: float, window: Window) -> FixedPoint:
    """Member of the fixed-point family at parameter s."""
    _require_mean_reverting(params)
    c = params.c
    xi = partition_Xi(c, s)
    denom = gaussian_sum(c, s, weight=lambda k: eval_beta(params.beta, k) * math.exp(-c * (k - s)))
    d = math.log(params.C_lambda * xi / denom) / c
    pi = discrete_gaussian(c, s, window)
    return FixedPoint(s=s, d=d, L_s=s + d, M_s=s - d, pi=pi, Xi=xi)


def K_of_s(params: ModelParams, s: float) -> float:
    """Level value of the fixed point at s: F(s) = 2s + mean(pi_s)."""
    c = params.c
    xi = partition_Xi(c, s)
    first = gaussian_sum(c, s, weight=lambda n: float(n))
    return 2.0 * s + first / xi


def solve_s_from_K(params: ModelParams, K: float) -> float:
    """The unique s* with K_of_s(s*) = K.

    Bisection on [K/3 - 1, K/3 + 1]; the bracket is always valid because
    F(s) - 3s is 1-periodic (shift identity) with |F(s) - 3s| < 1.
    """
    lo, hi = K / 3.0 - 1.0, K / 3.0 + 1.0
    flo, fhi = K_of_s(params, lo) - K, K_of_s(params, hi) - K
    if flo > 0 or fhi < 0:  # pragma: no cover - bracket is provably valid
        raise RuntimeError("bisection bracket invalid")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = K_of_s(params, mid) - K
        if abs(fmid) < K_TOL:
            return mid
        if fmid < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(mid)):
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def detailed_balance_residual(params: ModelParams, fp: FixedPoint) -> float:
    """max_n |pi(n) lambda_n - pi(n+1) mu_{n+1}| / (pi(n) lambda_n)."""
    lam, mu = rate_arrays(params, fp.L_s, fp.M_s, fp.pi.window, truncated=False)
    pi = fp.pi.values
    forward = pi[:-1] * lam[:-1]
    backward = pi[1:] * mu[1:]
    nz = forward > 0.0
    if not nz.any():
        return 0.0
    res = np.abs(forward[nz] - backward[nz]) / forward[nz]
    return float(res.max())
