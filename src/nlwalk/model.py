"""Problem data: jump rates, beta profiles and their standing conditions.

The walk jumps n -> n+1 at rate  lambda_n = beta(n) * exp(-c*(n - L))
and n -> n-1 at rate            mu_n     = beta(n-1) * exp(c*(n - M)).

Every profile, validated positive when built, gives log beta(n) directly;
the two admissibility checks (bounded sup; strict one-step contraction of
beta/e differences) live here as plain functions.
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

    def log_value(self, n: int) -> float:
        return math.log(self.b)


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

    def log_value(self, n: int) -> float:
        if n < self.n_min:
            return math.log(self.left)
        if n >= self.n_min + len(self.values):
            return math.log(self.right)
        return math.log(self.values[n - self.n_min])


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

    def log_value(self, n: int) -> float:
        k = n + 1 if n >= 0 else -n  # beta(n) = slope k e^{-ck}
        return math.log(self.slope) + math.log(k) - self.c * k


BetaProfile = Union[ConstantBeta, TableBeta, LinearDriftBeta]


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
        if isinstance(self.beta, LinearDriftBeta) and self.beta.c != self.c:
            raise InvalidProfile(
                f"linear-drift beta has c = {self.beta.c}, the model c = {self.c}"
            )

    @property
    def mean_reverting(self) -> bool:
        return math.isclose(self.C_lambda, self.C_mu, rel_tol=1e-12, abs_tol=0.0)


@functools.lru_cache(maxsize=64)
def log_beta_array(profile: BetaProfile, n_lo: int, n_hi: int) -> np.ndarray:
    """log beta(n) for n in [n_lo, n_hi] inclusive, as a read-only float
    array: the one place the library reads a profile.

    Cached per (profile, n_lo, n_hi): the profiles are frozen, so every
    caller gets the same array.  The dtype is fixed to float because equal
    profiles such as ConstantBeta(1) and ConstantBeta(1.0) share an entry.
    """
    out = np.array([profile.log_value(n) for n in range(n_lo, n_hi + 1)], dtype=float)
    out.flags.writeable = False
    return out


def check_rate_exponents(params: ModelParams, L: float, M: float, window: Window) -> None:
    """Raise RateOverflow unless every rate exponent -c(n - L), c(n - M)
    on the window is within EXP_LIMIT: the condition of rate_arrays."""
    c, lo, hi = params.c, window.n_min, window.n_max
    # both exponents are monotone in n, so their extremes sit at the ends
    if max(
        abs(c * (lo - L)), abs(c * (hi - L)), abs(c * (lo - M)), abs(c * (hi - M))
    ) > EXP_LIMIT:
        raise RateOverflow(
            f"rate exponent out of range on window {window} (L={L}, M={M})"
        )


def rate_arrays(
    params: ModelParams, L: float, M: float, window: Window, truncated: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized (lambda, mu) over the window, each rate formed once as
    exp(log beta + exponent): a rate below the float range is 0.

    With truncated=True the off-window jumps are zeroed (lambda at the
    right edge, mu at the left edge), which is the finite-chain
    approximation used everywhere downstream.
    """
    check_rate_exponents(params, L, M, window)
    c = params.c
    n = window.sites().astype(float)
    a = -c * (n - L)
    b = c * (n - M)
    # a huge beta can still carry a rate past the float range: it is inf,
    # and each consumer refuses an inf rate where it would use it
    with np.errstate(over="ignore"):
        lam = np.exp(log_beta_array(params.beta, window.n_min, window.n_max) + a)
        mu = np.exp(log_beta_array(params.beta, window.n_min - 1, window.n_max - 1) + b)
    if truncated:
        lam[-1] = 0.0
        mu[0] = 0.0
    return lam, mu


def check_beta_bounded(profile: BetaProfile, window: Window) -> Tuple[bool, float]:
    """Boundedness of beta: (holds, sup over window plus extensions)."""
    sup = float(np.exp(log_beta_array(profile, window.n_min, window.n_max)).max())
    if isinstance(profile, TableBeta):
        sup = max(sup, profile.left, profile.right)
    return math.isfinite(sup), sup


def largest_contraction_constant(profile: BetaProfile, window: Window) -> float:
    """min over the window of beta(n) - beta(n+-1)/e.  The strict
    contraction condition beta(n+-1)/e - beta(n) < -C holds for every
    0 < C below it; a value <= 0 means the condition fails."""
    beta = np.exp(log_beta_array(profile, window.n_min - 1, window.n_max + 1))
    inv_e = 1.0 / math.e
    b = beta[1:-1]
    return float(min((b - inv_e * beta[2:]).min(), (b - inv_e * beta[:-2]).min()))
