"""Finite-window measures on the integer lattice.

Computational surrogate for the weighted-l1 space of measures (weights
exp(n^2/2 + alpha|n|), whose logs the kernel's operator norms use),
with the mean position, a total-variation metric and CSV output.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import IO

import numpy as np

PROB_TOL = 1e-10


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


@dataclass(frozen=True)
class LatticeMeasure:
    window: Window
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.window.size,):
            raise ValueError(f"expected {self.window.size} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite entries in lattice values")
        object.__setattr__(self, "values", v)
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


def log_plus_weights(window: Window, alpha: float) -> np.ndarray:
    """log of the measure-space weights exp(n^2/2 + alpha|n|)."""
    n = window.sites().astype(float)
    return 0.5 * n * n + alpha * np.abs(n)


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


def write_measure_csv(m: LatticeMeasure, fh: IO[str]) -> None:
    w = csv.writer(fh)
    w.writerow(["n", "value"])
    w.writerows((int(n), repr(float(v))) for n, v in zip(m.window.sites(), m.values))
