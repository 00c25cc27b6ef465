"""Problem data: jump rates, beta profiles and their standing conditions.

The walk jumps n -> n+1 at rate  lambda_n = beta(n) * exp(-c*(n - L))
and n -> n-1 at rate            mu_n     = beta(n-1) * exp(c*(n - M)).

All profile kinds are positive on every window; the two admissibility
checks (bounded sup; strict one-step contraction of beta/e differences)
and the weighted-operator-norm estimate live here as plain functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np

from .errors import InvalidProfile, RateOverflow
from .lattice import Window

# exp() arguments beyond this are treated as overflow rather than inf,
# because downstream generators must stay finite.
EXP_LIMIT = 700.0


@dataclass(frozen=True)
class ConstantBeta:
    b: float = 1.0

    def __post_init__(self):
        if not self.b > 0:
            raise InvalidProfile(f"constant beta must be positive, got {self.b}")

    def value(self, n: int) -> float:
        return self.b


@dataclass(frozen=True)
class TableBeta:
    """Tabulated beta on [n_min, n_min+len-1] with constant extensions."""

    values: Tuple[float, ...]
    n_min: int = 0
    left: float | None = None   # default: first table value
    right: float | None = None  # default: last table value

    def __post_init__(self):
        if len(self.values) == 0:
            raise InvalidProfile("empty beta table")
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(not v > 0 for v in vals):
            raise InvalidProfile("beta table contains a non-positive value")
        left = vals[0] if self.left is None else float(self.left)
        right = vals[-1] if self.right is None else float(self.right)
        if not (left > 0 and right > 0):
            raise InvalidProfile("beta table extension values must be positive")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def value(self, n: int) -> float:
        if n < self.n_min:
            return self.left
        if n >= self.n_min + len(self.values):
            return self.right
        return self.values[n - self.n_min]


@dataclass(frozen=True)
class LinearDriftBeta:
    """Regauging that makes the mean drift asymptotically linear, -slope*n.

    Experimental: the strict contraction condition fails for it, so no
    convergence certificate is available.  Anchored at L = M = 0.
    """

    slope: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not (self.slope > 0 and self.c > 0):
            raise InvalidProfile("linear-drift gauge needs positive slope and c")

    def value(self, n: int) -> float:
        if n >= 0:
            return self.slope * (n + 1) * math.exp(-self.c * (n + 1))
        return self.slope * (-n) * math.exp(self.c * n)


BetaProfile = Union[ConstantBeta, TableBeta, LinearDriftBeta]


def eval_beta(profile: BetaProfile, n: int) -> float:
    """beta(n); positive for every supported profile."""
    v = profile.value(n)
    if not v > 0:
        raise InvalidProfile(f"beta({n}) = {v} is not positive")
    return v


@dataclass(frozen=True)
class ModelParams:
    """Static problem data: c, C_lambda, C_mu, the beta profile and the
    weighted-norm exponent alpha."""

    c: float = 1.0
    C_lambda: float = 1.0
    C_mu: float = 1.0
    beta: BetaProfile = field(default_factory=ConstantBeta)
    alpha: float = 0.0

    def __post_init__(self):
        if not self.c > 0:
            raise InvalidProfile(f"c must be positive, got {self.c}")
        if not self.C_lambda > 0:
            raise InvalidProfile(f"C_lambda must be positive, got {self.C_lambda}")
        if not self.C_mu > 0:
            raise InvalidProfile(f"C_mu must be positive, got {self.C_mu}")

    @property
    def mean_reverting(self) -> bool:
        return math.isclose(self.C_lambda, self.C_mu, rel_tol=1e-12, abs_tol=0.0)


def jump_rates(params: ModelParams, L: float, M: float, n: int) -> Tuple[float, float]:
    """(lambda_n, mu_n) at the given (L, M); raises RateOverflow when the
    exponent leaves the representable range."""
    a = -params.c * (n - L)
    b = params.c * (n - M)
    if abs(a) > EXP_LIMIT or abs(b) > EXP_LIMIT:
        raise RateOverflow(
            f"rate exponent out of range at n={n} (L={L}, M={M}, c={params.c})"
        )
    lam = eval_beta(params.beta, n) * math.exp(a)
    mu = eval_beta(params.beta, n - 1) * math.exp(b)
    return lam, mu


@functools.lru_cache(maxsize=64)
def beta_array(profile: BetaProfile, n_lo: int, n_hi: int) -> np.ndarray:
    """beta(n) for n in [n_lo, n_hi] inclusive, as a read-only float array.

    Cached per (profile, n_lo, n_hi): the profiles are frozen, so every
    caller gets the same array.  The dtype is fixed to float because equal
    profiles such as ConstantBeta(1) and ConstantBeta(1.0) share an entry.
    """
    out = np.array([eval_beta(profile, n) for n in range(n_lo, n_hi + 1)], dtype=float)
    out.flags.writeable = False
    return out


def rate_arrays(
    params: ModelParams, L: float, M: float, window: Window, truncated: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized (lambda, mu) over the window.

    With truncated=True the off-window jumps are zeroed (lambda at the
    right edge, mu at the left edge), which is the finite-chain
    approximation used everywhere downstream.
    """
    c, lo, hi = params.c, window.n_min, window.n_max
    # both exponents are monotone in n, so their extremes sit at the ends
    if max(
        abs(c * (lo - L)), abs(c * (hi - L)), abs(c * (lo - M)), abs(c * (hi - M))
    ) > EXP_LIMIT:
        raise RateOverflow(
            f"rate exponent out of range on window {window} (L={L}, M={M})"
        )
    n = window.sites().astype(float)
    a = -c * (n - L)
    b = c * (n - M)
    lam = beta_array(params.beta, window.n_min, window.n_max) * np.exp(a)
    mu = beta_array(params.beta, window.n_min - 1, window.n_max - 1) * np.exp(b)
    if truncated:
        lam[-1] = 0.0
        mu[0] = 0.0
    return lam, mu


def check_beta_bounded(profile: BetaProfile, window: Window) -> Tuple[bool, float]:
    """Boundedness of beta: (holds, sup over window plus extensions)."""
    sup = float(beta_array(profile, window.n_min, window.n_max).max())
    if isinstance(profile, TableBeta):
        sup = max(sup, profile.left, profile.right)
    return math.isfinite(sup), sup


def check_contraction(profile: BetaProfile, window: Window, C: float) -> bool:
    """Strict contraction condition: both one-step differences
    beta(n+-1)/e - beta(n) < -C on the window (beta > 0 holds for every
    profile)."""
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    return largest_contraction_constant(profile, window) > C


def largest_contraction_constant(profile: BetaProfile, window: Window) -> float:
    """Largest C for which check_contraction holds on the window (may be <= 0,
    meaning the condition fails)."""
    beta = beta_array(profile, window.n_min - 1, window.n_max + 1)
    inv_e = 1.0 / math.e
    b = beta[1:-1]
    return float(min((b - inv_e * beta[2:]).min(), (b - inv_e * beta[:-2]).min()))


def rate_boundedness(
    params: ModelParams, window: Window, L: float, M: float
) -> Tuple[float, np.ndarray, float]:
    """Rate-boundedness criterion for the off-diagonal operator.

    Returns (sup_n lambda_n*mu_{n+1}, weights c_n, norm estimate
    max_n sqrt(lambda_{n-1} mu_n) + sqrt(lambda_n mu_{n+1})).  The weights
    c_n = sqrt(mu_1..mu_n / lambda_0..lambda_{n-1}) are computed through
    cumulative log-sums (anchored at the window start) to avoid overflow.
    """
    if window.size < 2:
        raise ValueError("window must contain at least two sites")
    lam, mu = rate_arrays(params, L, M, window, truncated=False)
    prod = lam[:-1] * mu[1:]
    sup = float(prod.max())
    log_w = np.concatenate(
        ([0.0], 0.5 * np.cumsum(np.log(mu[1:]) - np.log(lam[:-1])))
    )
    with np.errstate(over="ignore"):
        weights = np.exp(log_w)
    root = np.sqrt(prod)
    two_term = root[:-1] + root[1:]
    norm_estimate = float(two_term.max()) if two_term.size else 2.0 * float(root.max())
    return sup, weights, norm_estimate
