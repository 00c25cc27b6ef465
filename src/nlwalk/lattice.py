"""Finite-window measures and functions on the integer lattice.

Computational surrogate for the weighted-l1 spaces of measures
(weights exp(n^2/2 + alpha|n|)) and functions (inverse weights),
together with their duality pairing and a total-variation metric.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import IO, Iterable

import numpy as np

from .errors import NormOverflow, NumericalError

PROB_TOL = 1e-10
LOG_EXP_MAX = 709.0  # exp overflows above this


@dataclass(frozen=True)
class Window:
    """Contiguous block of sites [n_min, n_min + size - 1]."""

    n_min: int
    size: int

    def __post_init__(self):
        if self.size < 3:
            raise ValueError(f"window size must be >= 3, got {self.size}")

    @classmethod
    def symmetric(cls, m: int) -> "Window":
        """[-m, m]."""
        return cls(-m, 2 * m + 1)

    @property
    def n_max(self) -> int:
        return self.n_min + self.size - 1

    def sites(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_min + self.size)

    def contains(self, n: int) -> bool:
        return self.n_min <= n <= self.n_max

    def index(self, n: int) -> int:
        if not self.contains(n):
            raise IndexError(f"site {n} outside window [{self.n_min}, {self.n_max}]")
        return n - self.n_min


def _as_values(window: Window, values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.shape != (window.size,):
        raise ValueError(f"expected {window.size} values, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite entries in lattice values")
    return v


@dataclass(frozen=True)
class LatticeMeasure:
    window: Window
    values: np.ndarray = field(repr=False)
    is_probability: bool = True

    def __post_init__(self):
        v = _as_values(self.window, self.values)
        object.__setattr__(self, "values", v)
        if self.is_probability:
            if v.min() < -PROB_TOL:
                raise ValueError(f"negative mass {v.min():g} beyond tolerance")
            if abs(v.sum() - 1.0) > PROB_TOL:
                raise ValueError(f"total mass {v.sum()!r} not within {PROB_TOL} of 1")

    @classmethod
    def delta(cls, n: int, window: Window) -> "LatticeMeasure":
        v = np.zeros(window.size)
        v[window.index(n)] = 1.0
        return cls(window, v)

    @classmethod
    def normalized(cls, window: Window, raw) -> "LatticeMeasure":
        """Clip tiny negatives to zero and renormalize to a probability."""
        v = np.asarray(raw, dtype=float)
        v = np.where(v < 0.0, 0.0, v)
        total = v.sum()
        if not total > 0:
            raise ValueError("cannot normalize a measure with no positive mass")
        return cls(window, v / total)

    def __getitem__(self, n: int) -> float:
        return float(self.values[self.window.index(n)])

    def mass(self) -> float:
        return float(self.values.sum())

    def boundary_mass(self) -> float:
        return float(abs(self.values[0]) + abs(self.values[-1]))


@dataclass(frozen=True)
class LatticeFunction:
    window: Window
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.window, self.values))

    @classmethod
    def from_callable(cls, window: Window, f) -> "LatticeFunction":
        return cls(window, np.array([f(int(n)) for n in window.sites()], dtype=float))

    def __getitem__(self, n: int) -> float:
        return float(self.values[self.window.index(n)])


def log_plus_weights(window: Window, alpha: float) -> np.ndarray:
    """log of the measure-space weights exp(n^2/2 + alpha|n|)."""
    n = window.sites().astype(float)
    return 0.5 * n * n + alpha * np.abs(n)


def _weighted_abs_sum(values: np.ndarray, log_w: np.ndarray) -> float:
    av = np.abs(values)
    nz = av > 0.0
    if not nz.any():
        return 0.0
    log_terms = np.log(av[nz]) + log_w[nz]
    if log_terms.max() > LOG_EXP_MAX:
        raise NormOverflow("weighted norm term exceeds the representable range")
    total = float(np.exp(log_terms).sum())
    if not math.isfinite(total):
        raise NormOverflow("weighted norm sum overflowed")
    return total


def norm_plus(m: LatticeMeasure, alpha: float) -> float:
    """Measure-space norm: sum exp(n^2/2 + alpha|n|) |m_n|."""
    return _weighted_abs_sum(m.values, log_plus_weights(m.window, alpha))


def norm_minus(f: LatticeFunction, alpha: float) -> float:
    """Function-space norm: sum exp(-n^2/2 - alpha|n|) |f_n|."""
    return _weighted_abs_sum(f.values, -log_plus_weights(f.window, alpha))


def pairing(m: LatticeMeasure, f: LatticeFunction, alpha: float | None = None) -> float:
    """Duality pairing <m, f> = sum m_n f_n over the window overlap.

    With alpha given, checks |<m,f>| <= norm_plus(m) * norm_minus(f) and
    raises NumericalError when floating point cannot confirm it (say, a
    weight underflowed).
    """
    lo = max(m.window.n_min, f.window.n_min)
    hi = min(m.window.n_max, f.window.n_max)
    if lo > hi:
        return 0.0
    mv = m.values[lo - m.window.n_min : hi - m.window.n_min + 1]
    fv = f.values[lo - f.window.n_min : hi - f.window.n_min + 1]
    value = float(np.dot(mv, fv))
    if alpha is not None:
        bound = norm_plus(m, alpha) * norm_minus(f, alpha)
        if not abs(value) <= bound * (1.0 + 1e-12) + 1e-300:
            raise NumericalError(f"duality bound violated: |{value}| > {bound}")
    return value


def mean_position(m: LatticeMeasure) -> float:
    """sum n * m_n over the window."""
    return float(np.dot(m.window.sites().astype(float), m.values))


def total_variation(a: LatticeMeasure, b: LatticeMeasure) -> float:
    """(1/2) sum |a_n - b_n| over the union of windows (missing sites 0)."""
    lo = min(a.window.n_min, b.window.n_min)
    hi = max(a.window.n_max, b.window.n_max)
    av = np.zeros(hi - lo + 1)
    bv = np.zeros(hi - lo + 1)
    av[a.window.n_min - lo : a.window.n_max - lo + 1] = a.values
    bv[b.window.n_min - lo : b.window.n_max - lo + 1] = b.values
    return 0.5 * float(np.abs(av - bv).sum())


def measure_to_csv_rows(m: LatticeMeasure) -> Iterable[tuple]:
    for n, v in zip(m.window.sites(), m.values):
        yield (int(n), repr(float(v)))


def write_measure_csv(m: LatticeMeasure, fh: IO[str]) -> None:
    w = csv.writer(fh)
    w.writerow(["n", "value"])
    w.writerows(measure_to_csv_rows(m))


def measure_to_json(m: LatticeMeasure) -> str:
    return json.dumps(
        {
            "n_min": m.window.n_min,
            "size": m.window.size,
            "is_probability": m.is_probability,
            "values": [float(v) for v in m.values],
        }
    )


def measure_from_json(text: str) -> LatticeMeasure:
    d = json.loads(text)
    return LatticeMeasure(
        Window(d["n_min"], d["size"]), np.array(d["values"]), d["is_probability"]
    )


def with_values(m: LatticeMeasure, values) -> LatticeMeasure:
    return replace(m, values=_as_values(m.window, values))
