"""Interacting-particle approximation of the coupled (p, L, M) dynamics.

N walkers share one pair of barriers (L, M).  Per step: the barriers move
by an Euler update driven by the empirical jump-rate averages, then every
walker attempts one jump by first-order thinning with the shared time
step.  The empirical mean position plus L + M is tracked as an invariant
check, mirroring the conserved quantity of the deterministic system.

The walkers interact only through their empirical law, so the ensemble is
held and stepped as occupation numbers: walkers per window site.  A step
draws one multinomial (up, down, stay) per site of the occupied band
[lo, hi), the sites from the first to the last occupied one, with
probabilities (lambda*dt, mu*dt, rest).  Summed per site, independent
per-walker thinning is exactly this multinomial, so the chain has the same
law as stepping each walker on its own, at a cost that grows with the
band rather than with N.  An empty site inside the band draws nothing, so
the random stream is the one a draw over the occupied sites alone uses.

The rates depend on (L, M) only through e^{cL} and e^{-cM}.  Each ensemble
takes one rate_arrays table at the window centre (L = M = 0 on a symmetric
window) and scales it every step; the step still refuses an (L, M) outside
rate_arrays' exponent rule with RateOverflow.  The centre table is finite
whenever some (L, M) passes that rule, so a window where none can
(c * (n_max - n_min) / 2 > EXP_LIMIT) raises RateOverflow as soon as the
Ensemble is built, and run_particles refuses it even for t_final = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import StepTooLarge
from .lattice import LatticeMeasure, Window
from .model import ModelParams, check_rate_exponents, rate_arrays

RATE_DT_LIMIT = 0.1


@dataclass
class ParticleSample:
    t: float
    L: float
    M: float
    K_N: float
    histogram: np.ndarray  # empirical measure over the window


@dataclass
class ParticleLog:
    params: ModelParams
    window: Window
    n_particles: int
    seed: int
    samples: List[ParticleSample] = field(default_factory=list)
    steps: int = 0
    max_rate_dt: float = 0.0  # largest occupied-site (lambda+mu)*dt of the run

    def final(self) -> ParticleSample:
        return self.samples[-1]

    def empirical_measure(self, k: int = -1) -> LatticeMeasure:
        return LatticeMeasure(self.window, self.samples[k].histogram)


@dataclass
class Ensemble:
    params: ModelParams
    window: Window
    counts: np.ndarray  # walkers per window site, int64, shape (window.size,)
    L: float
    M: float
    t: float = 0.0
    max_rate_dt: float = field(default=0.0, init=False)  # occupied sites, all steps
    _n: int = field(init=False, repr=False)
    _ref: float = field(init=False, repr=False)
    _lam0: np.ndarray = field(init=False, repr=False)
    _mu0: np.ndarray = field(init=False, repr=False)
    _probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (self.window.size,):
            raise ValueError(
                f"counts must have shape ({self.window.size},), got {counts.shape}"
            )
        if (counts < 0).any() or counts.sum() < 1:
            raise ValueError("counts must be nonnegative with at least one walker")
        self.counts = counts.astype(np.int64)
        self._n = int(self.counts.sum())
        # rates at L = M = ref, the window centre (0 on symmetric windows);
        # that table is finite whenever any (L, M) passes the exponent rule
        self._ref = (self.window.n_min + self.window.n_max) / 2
        self._lam0, self._mu0 = rate_arrays(
            self.params, self._ref, self._ref, self.window
        )
        self._probs = np.empty((self.window.size, 3))  # (up, down, stay) per site

    @classmethod
    def from_measure(
        cls,
        params: ModelParams,
        p0: LatticeMeasure,
        L0: float,
        M0: float,
        n_particles: int,
        rng: np.random.Generator,
    ) -> "Ensemble":
        """N walkers drawn i.i.d. from p0 (negative entries clipped)."""
        probs = np.clip(p0.values, 0.0, None)
        probs = probs / probs.sum()
        return cls(params, p0.window, rng.multinomial(n_particles, probs), L0, M0)

    @property
    def n_particles(self) -> int:
        return self._n

    def histogram(self) -> np.ndarray:
        return self.counts / self._n

    def K_N(self) -> float:
        sites = self.window.sites().astype(float)
        return self.L + self.M + float(np.dot(sites, self.counts)) / self._n

    def step(self, dt: float, rng: np.random.Generator) -> None:
        """One first-order step: Euler (L, M) update from pre-jump empirical
        rates, then synchronous thinning of all walkers, drawn per site of
        the occupied band as one multinomial over (up, down, stay)."""
        if dt == 0.0:
            return
        params = self.params
        check_rate_exponents(params, self.L, self.M, self.window)
        occ = np.flatnonzero(self.counts)
        lo, hi = int(occ[0]), int(occ[-1]) + 1
        n = self.counts[lo:hi]
        probs = self._probs[: hi - lo]
        up_scale = math.exp(params.c * (self.L - self._ref)) * dt
        down_scale = math.exp(params.c * (self._ref - self.M)) * dt
        np.multiply(self._lam0[lo:hi], up_scale, out=probs[:, 0])
        np.multiply(self._mu0[lo:hi], down_scale, out=probs[:, 1])
        total = probs[:, 2]
        np.add(probs[:, 0], probs[:, 1], out=total)
        # first-order thinning needs (lam+mu)*dt small at every *occupied*
        # site.  Empty sites inside the band draw nothing, and their rows
        # are zeroed so that a spike there cannot invalidate them
        probs[n == 0] = 0.0
        max_rate_dt = float(total.max())
        if max_rate_dt > RATE_DT_LIMIT:
            raise StepTooLarge(
                f"max rate * dt = {max_rate_dt:g} > {RATE_DT_LIMIT:g}; shrink dt"
            )
        self.max_rate_dt = max(self.max_rate_dt, max_rate_dt)
        up_dt, down_dt, _ = (n @ probs).tolist()  # walker sums of lam*dt, mu*dt
        self.L += dt * params.C_lambda - up_dt / self._n
        self.M += down_dt / self._n - dt * params.C_mu
        np.subtract(1.0, total, out=total)
        moves = rng.multinomial(n, probs)
        # a site's new count is its stayers plus the up-moves from below and
        # the down-moves from above; the sites next to the band held no
        # walkers.  lam is zero at the right edge and mu at the left, so no
        # walker leaves the window
        self.counts[lo:hi] = moves[:, 2]
        right = min(hi + 1, self.counts.size)
        self.counts[lo + 1 : right] += moves[: right - lo - 1, 0]
        left = max(lo - 1, 0)
        self.counts[left : hi - 1] += moves[left - lo + 1 :, 1]
        self.t += dt


def run_particles(
    params: ModelParams,
    p0: LatticeMeasure,
    L0: float,
    M0: float,
    n_particles: int,
    t_final: float,
    dt: float,
    seed: int,
    n_samples: int = 51,
) -> ParticleLog:
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"need a finite t_final >= 0, got {t_final}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"need a finite dt > 0, got {dt}")
    if n_particles < 1:
        raise ValueError(f"need n_particles >= 1, got {n_particles}")
    if n_samples < 1:
        raise ValueError(f"need n_samples >= 1, got {n_samples}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    ens = Ensemble.from_measure(params, p0, L0, M0, n_particles, rng)
    sample_times = np.linspace(0.0, t_final, n_samples)

    log = ParticleLog(params, p0.window, n_particles, seed)

    def record():
        log.samples.append(
            ParticleSample(ens.t, ens.L, ens.M, ens.K_N(), ens.histogram())
        )

    record()
    next_i = 1
    n_steps = int(math.ceil(t_final / dt - 1e-12))
    for k in range(n_steps):
        t_target = min((k + 1) * dt, t_final)
        ens.step(t_target - ens.t, rng)
        while next_i < len(sample_times) and ens.t >= sample_times[next_i] - 1e-12:
            record()
            next_i += 1
    while next_i < len(sample_times):
        record()
        next_i += 1
    log.steps, log.max_rate_dt = n_steps, ens.max_rate_dt
    return log
