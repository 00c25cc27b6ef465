"""Interacting-particle approximation of the coupled (p, L, M) dynamics.

N walkers share one pair of barriers (L, M).  Per step: the barriers move
by an Euler update driven by the empirical jump-rate averages, then every
walker attempts one jump by first-order thinning with the shared time
step.  The empirical mean position plus L + M is tracked as an invariant
check, mirroring the conserved quantity of the deterministic system.

The walkers interact only through their empirical law, so the ensemble is
held and stepped as occupation numbers: walkers per window site.  A step
draws one multinomial (up, down, stay) per occupied site with
probabilities (lambda*dt, mu*dt, rest).  Summed per site, independent
per-walker thinning is exactly this multinomial, so the chain has the same
law as stepping each walker on its own, at a cost that grows with the
occupied sites rather than with N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import StepTooLarge
from .lattice import LatticeMeasure, Window
from .model import ModelParams, rate_arrays

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

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (self.window.size,):
            raise ValueError(
                f"counts must have shape ({self.window.size},), got {counts.shape}"
            )
        if (counts < 0).any() or counts.sum() < 1:
            raise ValueError("counts must be nonnegative with at least one walker")
        self.counts = counts.astype(np.int64)

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
        return int(self.counts.sum())

    def histogram(self) -> np.ndarray:
        return self.counts / self.n_particles

    def K_N(self) -> float:
        sites = self.window.sites().astype(float)
        return self.L + self.M + float(np.dot(sites, self.counts)) / self.n_particles

    def step(self, dt: float, rng: np.random.Generator) -> None:
        """One first-order step: Euler (L, M) update from pre-jump empirical
        rates, then synchronous thinning of all walkers, drawn per occupied
        site as one multinomial over (up, down, stay)."""
        if dt == 0.0:
            return
        lam, mu = rate_arrays(self.params, self.L, self.M, self.window)
        occ = np.flatnonzero(self.counts)
        n_occ = self.counts[occ]
        rates = np.stack((lam[occ], mu[occ]), axis=1)  # (occupied, up/down)
        total = rates.sum(axis=1)
        # first-order thinning needs (lam+mu)*dt small at every *occupied*
        # site; empty far-edge sites carry huge rates but no walkers
        max_rate = float(total.max())
        if max_rate * dt > RATE_DT_LIMIT:
            raise StepTooLarge(
                f"max rate * dt = {max_rate * dt:g} > {RATE_DT_LIMIT:g}; shrink dt"
            )
        mean_lam, mean_mu = (n_occ @ rates) / n_occ.sum()
        self.L += dt * (self.params.C_lambda - float(mean_lam))
        self.M += dt * (float(mean_mu) - self.params.C_mu)
        probs = np.concatenate((rates * dt, (1.0 - total * dt)[:, None]), axis=1)
        moves = rng.multinomial(n_occ, probs)
        # jumps[0] up-moves, jumps[1] down-moves per site; lam is zero at the
        # right edge and mu at the left, so no walker leaves the window
        jumps = np.zeros((2, self.counts.size), dtype=np.int64)
        jumps[:, occ] = moves[:, :2].T
        self.counts -= jumps[0] + jumps[1]
        self.counts[1:] += jumps[0, :-1]
        self.counts[:-1] += jumps[1, 1:]
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
    return log
