"""Host-speed adjustment of the benchmark's operation times.

The shared host this benchmark was written on runs the same code 20-60%
slower for stretches of a few seconds to minutes, so raw seconds differ
between runs by more than any useful bound.  While a run lasts, a timer
signal makes the benchmark's process run a fixed chunk of reference work
(a few ms of the benchmark's own code, which no change to nlwalk touches)
every SAMPLE_INTERVAL_S and record how long it took.  An interval's
adjusted seconds are its seconds, less the sampling done inside it, scaled
by the chunk's reference seconds over its median time sampled during it.
A faster nlwalk shows in full; a slower host mostly does not.

The host slows different kinds of work by different amounts, so each
workload samples the chunk that tracked its own operations best: over runs
of a few minutes, "mixed" cut the spread of per-operation times of relax,
paths and kernel by two to three times, and "walkers" halved that of
particles, whose gathers over 10 000 walkers slow down with the host's
memory traffic more than the mixed chunk does.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time
from contextlib import contextmanager
from typing import List, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

SAMPLE_INTERVAL_S = 0.1
# an interval with fewer samples inside it is adjusted by this many samples
# nearest to it
MIN_SAMPLES = 5

_rng = np.random.default_rng(0)
_DIAG, _OFF, _VEC = _rng.random(51), _rng.random(50), _rng.random(51)
_SMALL = _rng.random((17, 17)) / 17
_BIG = _rng.random(10_000)
_POSITIONS = _rng.integers(0, 51, 10_000)
_LAM, _MU = _rng.random(51), _rng.random(51)


def mixed_chunk() -> None:
    """A fixed mix of the kinds of work the workloads do: an interpreted
    scalar loop (paths), tridiagonal eigensolves with their propagator
    (relax), small dense products (kernel) and a pass over a 10 000-element
    array (particles)."""
    draw = random.Random(0).random
    x = 0.0
    for _ in range(2000):
        x += math.exp(-draw()) if draw() < 0.5 else draw()
    for _ in range(6):
        w, U = eigh_tridiagonal(_DIAG, _OFF, lapack_driver="stev", check_finite=False)
        U @ (np.exp(w * 1e-3) * (U.T @ _VEC))
        _SMALL @ _SMALL + _SMALL
    np.searchsorted(np.cumsum(np.exp(-_BIG)), _BIG)


def walkers_chunk() -> None:
    """Thinning steps of 10 000 walkers, as particles.Ensemble.step takes
    them: gathers of per-site rates, uniform draws and comparisons."""
    rng = np.random.Generator(np.random.Philox(1))
    positions = _POSITIONS
    for _ in range(8):
        lam, mu = _LAM[positions], _MU[positions]
        u = rng.random(len(positions))
        up = u < lam * 1e-2
        down = (~up) & (u < (lam + mu) * 1e-2)
        positions = np.clip(positions + up.astype(int) - down.astype(int), 0, 50)


# name: (chunk, its median seconds on the 2-core host the benchmark was
# written on, Python 3.11.7, numpy 2.4.6, scipy 1.17.1); the seconds only
# set the scale of the adjusted seconds
CHUNKS = {
    "mixed": (mixed_chunk, 0.0036),
    "walkers": (walkers_chunk, 0.0016),
}


class HostSpeed:
    """Samples of one of CHUNKS, as (start, end) perf_counter pairs, taken
    by a timer while `sampling()` lasts."""

    def __init__(self, chunk: str):
        self.chunk, self.reference_s = CHUNKS[chunk]
        self.samples: List[Tuple[float, float]] = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.chunk()
        self.samples.append((start, time.perf_counter()))

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def sampled_inside(self, start: float, end: float) -> float:
        """Seconds of sampling that ran inside [start, end)."""
        return sum(e - s for s, e in self.samples if start <= s < end)

    def adjust(self, start: float, end: float, seconds: float) -> float:
        """`seconds`, measured over [start, end), at the host speed at which
        the chunk takes its reference seconds; raises when nothing has been
        sampled yet."""
        inside = [(s, e) for s, e in self.samples if start <= s < end]
        if len(inside) < MIN_SAMPLES:
            middle = 0.5 * (start + end)
            inside = sorted(self.samples, key=lambda se: abs(se[0] - middle))[:MIN_SAMPLES]
        if not inside:
            raise ValueError("no host-speed samples")
        return seconds * self.reference_s / statistics.median(e - s for s, e in inside)
