import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwalk import (
    Ensemble,
    LatticeMeasure,
    ModelParams,
    Window,
    run_particles,
)
from nlwalk.errors import StepTooLarge
from nlwalk.model import rate_arrays
from nlwalk.particles import RATE_DT_LIMIT

PARAMS = ModelParams()


def make_ensemble(n=100, seed=0, m=10):
    rng = np.random.default_rng(seed)
    w = Window.symmetric(m)
    return Ensemble.from_measure(
        PARAMS, LatticeMeasure.delta(0, w), 0.5, -0.3, n, rng
    )


def per_walker_step(params, window, positions, L, M, dt, rng):
    """Reference: one first-order step with one uniform per walker.
    Returns (positions, L, M); raises StepTooLarge as Ensemble.step must."""
    lam, mu = rate_arrays(params, L, M, window)
    idx = positions - window.n_min
    lam_i = lam[idx]
    mu_i = mu[idx]
    max_rate = float((lam_i + mu_i).max())
    if max_rate * dt > RATE_DT_LIMIT:
        raise StepTooLarge(f"max rate * dt = {max_rate * dt:g}")
    L = L + dt * (params.C_lambda - float(lam_i.mean()))
    M = M + dt * (float(mu_i.mean()) - params.C_mu)
    u = rng.random(len(positions))
    up = u < lam_i * dt
    down = (~up) & (u < (lam_i + mu_i) * dt)
    return positions + up.astype(int) - down.astype(int), L, M


@st.composite
def occupancies(draw):
    m = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(0, 40), min_size=2 * m + 1, max_size=2 * m + 1))
    if sum(counts) == 0:
        counts[draw(st.integers(0, 2 * m))] = 1
    return Window.symmetric(m), np.array(counts)


class TestStep:
    def test_zero_dt_noop(self):
        ens = make_ensemble()
        before = ens.counts.copy()
        ens.step(0.0, np.random.default_rng(1))
        assert np.array_equal(ens.counts, before)
        assert (ens.t, ens.L, ens.M) == (0.0, 0.5, -0.3)

    def test_step_too_large(self):
        ens = make_ensemble()
        with pytest.raises(StepTooLarge):
            ens.step(1.0, np.random.default_rng(1))

    def test_single_particle_jump_probabilities(self):
        # at L = M = 0 with the particle at 0 both jump probabilities are dt
        w = Window.symmetric(5)
        n_trials = 200_000
        dt = 0.01
        rng = np.random.default_rng(7)
        start = np.zeros(w.size, dtype=int)
        start[w.index(0)] = 1000
        up = down = 0
        for _ in range(n_trials // 1000):
            ens = Ensemble(PARAMS, w, start, 0.0, 0.0)
            ens.step(dt, rng)
            up += int(ens.counts[w.index(1)])
            down += int(ens.counts[w.index(-1)])
        se = 3 * np.sqrt(dt / n_trials)
        assert up / n_trials == pytest.approx(dt, abs=se)
        assert down / n_trials == pytest.approx(dt, abs=se)

    def test_rejects_empty_or_malformed_counts(self):
        w = Window.symmetric(3)
        with pytest.raises(ValueError):
            Ensemble(PARAMS, w, np.zeros(w.size, dtype=int), 0.0, 0.0)
        with pytest.raises(ValueError):
            Ensemble(PARAMS, w, np.ones(w.size + 1, dtype=int), 0.0, 0.0)
        with pytest.raises(ValueError):
            Ensemble(PARAMS, w, np.array([0, 0, 2, -1, 0, 0, 0]), 0.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        occ=occupancies(),
        L=st.floats(-3.0, 3.0),
        M=st.floats(-3.0, 3.0),
        log_dt=st.floats(-5.0, -0.5),
    )
    def test_barriers_and_guard_match_per_walker(self, occ, L, M, log_dt):
        w, counts = occ
        dt = 10.0 ** log_dt
        positions = np.repeat(w.sites(), counts)
        try:
            _, L_ref, M_ref = per_walker_step(
                PARAMS, w, positions, L, M, dt, np.random.default_rng(0)
            )
        except StepTooLarge:
            L_ref = None
        ens = Ensemble(PARAMS, w, counts, L, M)
        if L_ref is None:
            with pytest.raises(StepTooLarge):
                ens.step(dt, np.random.default_rng(0))
            return
        ens.step(dt, np.random.default_rng(0))
        assert math.isclose(ens.L, L_ref, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(ens.M, M_ref, rel_tol=1e-12, abs_tol=1e-15)
        assert ens.counts.sum() == counts.sum() and (ens.counts >= 0).all()

    def test_jump_counts_per_site(self):
        # sites 3 apart, so the walkers arriving at n+1 are exactly the
        # up-moves from n and those at n-1 the down-moves from n
        w = Window.symmetric(10)
        L, M, dt = -0.8, 0.8, 0.01
        start = np.zeros(w.size, dtype=int)
        sites = (-3, 0, 3)
        for n, k in zip(sites, (2000, 5000, 2000)):
            start[w.index(n)] = k
        lam, mu = rate_arrays(PARAMS, L, M, w)
        seeds = range(200)
        up = np.zeros((len(seeds), len(sites)))
        down = np.zeros_like(up)
        for r, seed in enumerate(seeds):
            ens = Ensemble(PARAMS, w, start, L, M)
            ens.step(dt, np.random.default_rng(seed))
            up[r] = [ens.counts[w.index(n + 1)] for n in sites]
            down[r] = [ens.counts[w.index(n - 1)] for n in sites]
        for j, n in enumerate(sites):
            i = w.index(n)
            for moves, rate in ((up[:, j], lam[i]), (down[:, j], mu[i])):
                p = rate * dt
                se = math.sqrt(start[i] * p * (1 - p) / len(seeds))
                assert abs(moves.mean() - start[i] * p) < 4 * se

    def test_K_drift_small(self):
        drifts = []
        for seed in range(5):
            log = run_particles(
                PARAMS, LatticeMeasure.delta(0, Window.symmetric(15)),
                0.5, -0.3, 2000, 1.0, 1e-3, seed=seed,
            )
            drifts.append(abs(log.samples[-1].K_N - log.samples[0].K_N))
        # drift is O(dt) bias plus O(sqrt(T/N)) fluctuation
        assert np.mean(drifts) < 0.1


class TestRun:
    def test_reproducible(self):
        args = (PARAMS, LatticeMeasure.delta(0, Window.symmetric(10)),
                0.5, -0.3, 500, 0.5, 1e-3)
        a = run_particles(*args, seed=21)
        b = run_particles(*args, seed=21)
        c = run_particles(*args, seed=22)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.L == sb.L and sa.M == sb.M
            assert np.array_equal(sa.histogram, sb.histogram)
        assert any(
            not np.array_equal(sa.histogram, sc.histogram)
            for sa, sc in zip(a.samples, c.samples)
        )

    def test_confined_to_window(self):
        w = Window.symmetric(4)
        log = run_particles(
            PARAMS, LatticeMeasure.delta(0, w), 0.2, -0.2, 400, 2.0, 1e-3, seed=3
        )
        for s in log.samples:
            assert s.histogram.sum() == pytest.approx(1.0)
        assert log.empirical_measure().window == w

    def test_sample_times_recorded(self):
        log = run_particles(
            PARAMS, LatticeMeasure.delta(0, Window.symmetric(8)),
            0.2, -0.2, 100, 1.0, 1e-3, seed=1, n_samples=11,
        )
        assert len(log.samples) == 11
        assert log.samples[0].t == 0.0
        assert log.samples[-1].t == pytest.approx(1.0, abs=1e-9)
