"""Interacting-particle approximation of the coupled (p, L, M) dynamics.

N walkers share one pair of barriers (L, M).  Per step: the barriers move
by an Euler update driven by the empirical jump-rate averages, then every
walker attempts one jump by first-order thinning with the shared time
step.  The empirical mean position plus L + M is tracked as an invariant
check, mirroring the conserved quantity of the deterministic system.

The walkers interact only through their empirical law, so the ensemble is
held and stepped as occupation numbers: walkers per window site.  Summed
per site, independent per-walker thinning is one (up, down, stay)
multinomial with probabilities (lambda*dt, mu*dt, rest).  A step draws it
at each occupied site of the band [lo, hi), the sites from the first to
the last occupied one, as a binomial pair: up ~ Bin(k, lambda*dt), then
down ~ Bin(k - up, mu*dt / (1 - lambda*dt)), which has exactly that law.
So the chain has the law of stepping each walker on its own, at a cost
that grows with the band rather than with N.

Each binomial inverts its CDF at one uniform, summing the pmf upward
from 0, so the loop runs 1 + X times; a step takes its uniforms as one
block, a pair per band site (an empty site leaves its pair unused).
Where k*p > 30, the mean is large enough that numpy's own switch from
inversion to BTPE applies, and the site calls rng.binomial instead
(README dt = 1e-3 reaches it on the first step from delta_0, and so does
a large N).  This replaced one rng.multinomial call per step, whose
per-call checks cost more than its sampling at a handful of sites; the
random stream changed with it, the law did not.

A step is one loop over the band on Python scalars, in site order: it
checks the guard at each occupied site before that site draws, adds the
walker sums of lambda*dt and mu*dt for the barrier update, and adds the
site's moves into the new counts on [lo - 1, hi + 1), whose first and
last nonzero sites are the next step's band.  (L, M), the counts and t
change only once the loop has finished, so a refused step leaves the
ensemble as it was: StepTooLarge, or RateOverflow for a rate past the
float range.  The guard bounds the band: (lambda + mu)*dt <= 0.1
on every occupied site keeps, for constant beta = b, the band within
(M - L) + 2 ln(0.1/(b dt))/c + 1 sites.

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
from typing import List, Tuple

import numpy as np

from .errors import RateOverflow, StepTooLarge
from .lattice import LatticeMeasure, Window
from .model import ModelParams, check_rate_exponents, rate_arrays

RATE_DT_LIMIT = 0.1
# above this mean a binomial is drawn by numpy's BTPE rather than by
# inversion, numpy's own switch between the two
_INVERSION_MAX_MEAN = 30.0


def _binomial(k: int, p: float, u: float, rng: np.random.Generator) -> int:
    """Bin(k, p) at the uniform u, 0 <= p < 1: the least x with
    u <= P(X <= x), the pmf summed upward from 0.  An x whose pmf is 0 in
    floats (x > k, or u in the rounding gap below 1 that the summed pmf
    leaves) starts over at a fresh uniform.  For kp > _INVERSION_MAX_MEAN
    it is rng.binomial."""
    if k * p > _INVERSION_MAX_MEAN:
        return int(rng.binomial(k, p))
    f0 = f = math.exp(k * math.log1p(-p))  # P(X = 0); (1 - p)**k loses p < 2**-53
    if u <= f:
        return 0
    ratio = p / (1.0 - p)
    x = 0
    while u > f:
        u -= f
        x += 1
        f *= ratio * (k - x + 1) / x
        if not f:
            u, f, x = rng.random(), f0, 0
    return x


def _site_moves(
    k: int, up: float, down: float, u_up: float, u_down: float, rng: np.random.Generator
) -> Tuple[int, int]:
    """(up-moves, down-moves) of k walkers at one site with jump
    probabilities up and down, up + down <= RATE_DT_LIMIT: the (up, down,
    stay) multinomial as up ~ Bin(k, up), then down ~ Bin(k - up,
    down / (1 - up)), each drawn by _binomial at its own uniform."""
    n_up = _binomial(k, up, u_up, rng)
    return n_up, _binomial(k - n_up, down / (1.0 - up), u_down, rng)


@dataclass
class ParticleSample:
    t: float
    L: float
    M: float
    K_N: float
    histogram: np.ndarray  # empirical measure over the window


@dataclass
class ParticleLog:
    window: Window
    samples: List[ParticleSample] = field(default_factory=list)
    steps: int = 0
    max_rate_dt: float = 0.0  # largest occupied-site (lambda+mu)*dt of the run
    band_max: int = 0  # widest occupied band a step drew over (0: no step)
    jumps: int = 0  # walker moves of the run, up and down

    def final(self) -> ParticleSample:
        return self.samples[-1]

    def empirical_measure(self) -> LatticeMeasure:
        """The final sample's empirical measure."""
        return LatticeMeasure(self.window, self.samples[-1].histogram)


@dataclass
class Ensemble:
    params: ModelParams
    window: Window
    counts: List[int]  # walkers per window site, as Python ints for the scalar step
    L: float
    M: float
    t: float = 0.0
    max_rate_dt: float = field(default=0.0, init=False)  # occupied sites, all steps
    band_max: int = field(default=0, init=False)  # widest band a step drew over
    jumps: int = field(default=0, init=False)  # walker moves, all steps
    _n: int = field(init=False, repr=False)
    _ref: float = field(init=False, repr=False)
    _lam0: List[float] = field(init=False, repr=False)
    _mu0: List[float] = field(init=False, repr=False)
    _lo: int = field(init=False, repr=False)  # occupied band [lo, hi)
    _hi: int = field(init=False, repr=False)

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (self.window.size,):
            raise ValueError(
                f"counts must have shape ({self.window.size},), got {counts.shape}"
            )
        if (counts < 0).any() or counts.sum() < 1:
            raise ValueError("counts must be nonnegative with at least one walker")
        self.counts = counts.astype(np.int64).tolist()
        self._n = sum(self.counts)
        # rates at L = M = ref, the window centre (0 on symmetric windows);
        # that table is finite whenever any (L, M) passes the exponent rule
        self._ref = (self.window.n_min + self.window.n_max) / 2
        lam0, mu0 = rate_arrays(self.params, self._ref, self._ref, self.window)
        self._lam0, self._mu0 = lam0.tolist(), mu0.tolist()
        occ = np.flatnonzero(counts)
        self._lo, self._hi = int(occ[0]), int(occ[-1]) + 1

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
        probs = LatticeMeasure.normalized(p0.window, p0.values).values
        return cls(params, p0.window, rng.multinomial(n_particles, probs), L0, M0)

    def histogram(self) -> np.ndarray:
        return np.array(self.counts) / self._n

    def K_N(self) -> float:
        sites = self.window.sites().astype(float)
        return self.L + self.M + float(np.dot(sites, self.counts)) / self._n

    def step(self, dt: float, rng: np.random.Generator) -> None:
        """One first-order step: Euler (L, M) update from pre-jump empirical
        rates, then synchronous thinning of all walkers, drawn per occupied
        site of the band as an (up, down) binomial pair."""
        if dt == 0.0:
            return
        params = self.params
        L, M = self.L, self.M
        check_rate_exponents(params, L, M, self.window)
        lo, hi = self._lo, self._hi
        up_scale = math.exp(params.c * (L - self._ref)) * dt
        down_scale = math.exp(params.c * (self._ref - M)) * dt
        # one (up, down) pair of uniforms per band site, taken in turn from
        # one block; empty sites leave theirs unused
        uniforms = iter(rng.random(2 * (hi - lo)).tolist())
        # a site's new count is its stayers plus the up-moves from below and
        # the down-moves from above.  lam is zero at the right edge and mu at
        # the left, so no walker leaves the window: the new counts lie on
        # [lo - 1, hi + 1) clipped to it, and their first and last nonzero
        # sites are the next step's band
        left = max(lo - 1, 0)
        new = [0] * (min(hi + 1, len(self.counts)) - left)
        j = lo - left
        max_rate_dt = 0.0
        up_dt = down_dt = 0.0  # walker sums of lam*dt and mu*dt, in site order
        jumps = 0
        # first-order thinning needs (lam+mu)*dt small at every *occupied*
        # site, checked before the site draws.  Empty sites inside the band
        # draw nothing, so a rate spike there cannot trip the guard
        for k, lam, mu, u_up, u_down in zip(
            self.counts[lo:hi], self._lam0[lo:hi], self._mu0[lo:hi],
            uniforms, uniforms,
        ):
            if k:
                up = lam * up_scale
                down = mu * down_scale
                total = up + down
                if total > max_rate_dt:
                    if total > RATE_DT_LIMIT:
                        site = self.window.n_min + left + j
                        if total == math.inf:
                            raise RateOverflow(f"jump rates overflowed at site {site}")
                        raise StepTooLarge(
                            f"rate * dt = {total:g} > {RATE_DT_LIMIT:g} at site {site}; shrink dt"
                        )
                    max_rate_dt = total
                up_dt += k * up
                down_dt += k * down
                n_up, n_down = _site_moves(k, up, down, u_up, u_down, rng)
                new[j] += k - n_up - n_down
                if n_up:
                    new[j + 1] += n_up
                    jumps += n_up
                if n_down:
                    new[j - 1] += n_down
                    jumps += n_down
            j += 1
        if max_rate_dt > self.max_rate_dt:
            self.max_rate_dt = max_rate_dt
        if hi - lo > self.band_max:
            self.band_max = hi - lo
        self.jumps += jumps
        self.L += dt * params.C_lambda - up_dt / self._n
        self.M += down_dt / self._n - dt * params.C_mu
        self.counts[left : left + len(new)] = new
        first, last = 0, len(new) - 1
        while not new[first]:
            first += 1
        while not new[last]:
            last -= 1
        self._lo, self._hi = left + first, left + last + 1
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
    if not math.isfinite(t_final / dt):
        raise ValueError(f"t_final / dt = {t_final:g} / {dt:g} overflows the step count")
    if not 1 <= n_particles < 2**63:  # rng.multinomial draws int64 counts
        raise ValueError(f"need 1 <= n_particles < 2**63, got {n_particles}")
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2, got {n_samples}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    ens = Ensemble.from_measure(params, p0, L0, M0, n_particles, rng)
    sample_times = np.linspace(0.0, t_final, n_samples).tolist()

    log = ParticleLog(p0.window)

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
    log.steps, log.max_rate_dt, log.band_max = n_steps, ens.max_rate_dt, ens.band_max
    log.jumps = ens.jumps
    return log
