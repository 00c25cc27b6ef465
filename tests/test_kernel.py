import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwalk import (
    FrozenPath,
    IntegratorConfig,
    LatticeMeasure,
    ModelParams,
    SystemState,
    Window,
    dyson_series,
    fixed_point,
    generator_at,
    integrate,
    kernel_weighted_distance,
    propagate,
    sample_paths,
    total_variation,
    v_induced_norm,
    v_norm_bound,
)
from nlwalk.errors import NonConstantPath, UniformizationOverflow

PATH0 = FrozenPath.constant(1.3, -0.4)
PARAMS = ModelParams()


@pytest.fixture(scope="module")
def readme_path(bench_params, bench_state0):
    """The README config's (L, M) path on [0, 1], as criterion 7 samples it."""
    log = integrate(
        bench_params, bench_state0, 1.0,
        IntegratorConfig(method="splitting", dt_init=1e-3, n_samples=21),
    )
    return FrozenPath.from_log(log)


class TestFrozenPath:
    @given(
        start=st.floats(-10.0, 10.0),
        gaps=st.lists(st.floats(1e-6, 10.0), max_size=12),
        values=st.lists(st.floats(-1e6, 1e6), min_size=26, max_size=26),
        fractions=st.lists(st.floats(-0.5, 1.5), max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_at_is_np_interp(self, start, gaps, values, fractions):
        # knots, midpoints, arbitrary points inside and outside the range;
        # no gaps means a single-knot (constant) path
        times = start + np.concatenate(([0.0], np.cumsum(gaps)))
        k = len(times)
        path = FrozenPath(times, np.array(values[:k]), np.array(values[13:13 + k]))
        span = times[-1] - times[0]
        queries = [
            *times,
            *(0.5 * (times[:-1] + times[1:])),
            *(times[0] + f * span for f in fractions),
            times[0] - 1.0,
            times[-1] + 1.0,
        ]
        for t in queries:
            expected = (
                float(np.interp(t, times, path.L_values)),
                float(np.interp(t, times, path.M_values)),
            )
            assert path.at(float(t)) == expected

    def test_rejects_non_finite_times(self):
        with pytest.raises(ValueError):
            FrozenPath(np.array([0.0, np.inf]), np.zeros(2), np.zeros(2))


class TestGenerator:
    def test_small_window_entries(self):
        gen = generator_at(PARAMS, FrozenPath.constant(0.0, 0.0), 0.0, Window.symmetric(1))
        assert gen.upper == pytest.approx([math.e, 1.0], rel=1e-15)
        assert gen.lower == pytest.approx([1.0, math.e], rel=1e-15)
        assert gen.diag == pytest.approx([-math.e, -2.0, -math.e], rel=1e-15)

    def test_row_sums_zero(self):
        gen = generator_at(PARAMS, PATH0, 0.0, Window.symmetric(8))
        assert np.abs(gen.as_matrix().sum(axis=1)).max() < 1e-12 * gen.max_rate

    def test_v_norm_within_bound(self):
        # for beta = 1 the bound is attained exactly on interior columns,
        # so allow roundoff-level slack
        for (L, M) in ((0.0, 0.0), (1.3, -0.4), (-0.5, 0.8)):
            gen = generator_at(PARAMS, FrozenPath.constant(L, M), 0.0, Window.symmetric(8))
            measured = v_induced_norm(gen, alpha=0.0)
            bound = v_norm_bound(PARAMS, 1.0, L, M, alpha=0.0)
            assert measured <= bound * (1 + 1e-12)
            assert measured == pytest.approx(
                math.sqrt(math.e) * (math.exp(L) + math.exp(-M)), rel=1e-12
            )


class TestPropagate:
    def test_identity_at_zero_span(self):
        P = propagate(PARAMS, PATH0, 0.5, 0.5, Window.symmetric(5))
        assert np.array_equal(P.rows, np.eye(11))

    def test_row_stochastic(self):
        P = propagate(PARAMS, PATH0, 0.0, 1.0, Window.symmetric(8), substeps=50)
        assert P.max_row_sum_error() < 1e-10
        assert P.min_entry() >= 0.0

    def test_chapman_kolmogorov(self):
        w = Window.symmetric(8)
        P = propagate(PARAMS, PATH0, 0.0, 0.9, w, substeps=30)
        A = propagate(PARAMS, PATH0, 0.0, 0.3, w, substeps=10)
        B = propagate(PARAMS, PATH0, 0.3, 0.9, w, substeps=20)
        assert np.abs(A.rows @ B.rows - P.rows).max() < 1e-8

    def test_overflow_guard(self):
        with pytest.raises(UniformizationOverflow):
            propagate(PARAMS, PATH0, 0.0, 1.0, Window.symmetric(25), substeps=1)

    def test_continuity_in_span(self):
        # window kept small so the edge rates do not saturate the max-abs
        # norm at 1 over the tested spans
        w = Window.symmetric(3)
        path = FrozenPath.constant(0.0, 0.0)
        norms = []
        for delta in (1e-1, 1e-2, 1e-3):
            P = propagate(PARAMS, path, 0.0, delta, w, substeps=5)
            norms.append(np.abs(P.rows - np.eye(w.size)).max())
        assert norms[0] > norms[1] > norms[2]

    def test_window_growth_consistency(self):
        # widening the window beyond the support barely moves the marginal
        p_small = LatticeMeasure.delta(0, Window.symmetric(10))
        p_large = LatticeMeasure.delta(0, Window.symmetric(12))
        Ps = propagate(PARAMS, PATH0, 0.0, 0.2, p_small.window, substeps=40)
        Pl = propagate(PARAMS, PATH0, 0.0, 0.2, p_large.window, substeps=250)
        ms = Ps.apply(p_small)
        ml = Pl.apply(p_large)
        a = LatticeMeasure.normalized(p_small.window, ms)
        b = LatticeMeasure.normalized(p_large.window, ml)
        assert total_variation(a, b) < 10 * math.exp(-25)

    def test_forward_consistency_with_dynamics(self):
        # p0 P(0,t) along the trajectory's own (L,M) path reproduces the
        # integrated marginal
        w = Window.symmetric(10)
        state0 = SystemState(p=LatticeMeasure.delta(0, w), L=1.3, M=-0.4)
        log = integrate(
            PARAMS, state0, 0.5,
            IntegratorConfig(method="splitting", dt_init=2.5e-4, n_samples=51),
        )
        path = FrozenPath.from_log(log)
        P = propagate(PARAMS, path, 0.0, 0.5, w, substeps=200)
        marginal = LatticeMeasure.normalized(w, P.apply(state0.p))
        assert total_variation(marginal, log.final().p) < 1e-5


class TestDyson:
    def test_requires_constant_path(self):
        moving = FrozenPath(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(NonConstantPath):
            dyson_series(PARAMS, moving, 0.0, 1.0, Window.symmetric(5), 2)

    def test_zero_jump_term_is_survival(self):
        w = Window.symmetric(5)
        gen = generator_at(PARAMS, PATH0, 0.0, w)
        approx, _ = dyson_series(PARAMS, PATH0, 0.0, 0.05, w, k_max=0)
        expected = np.diag(np.exp(gen.diag * 0.05))
        assert np.allclose(approx.rows, expected, rtol=1e-10, atol=1e-300)

    def test_matches_propagate_within_bound(self):
        w = Window.symmetric(8)
        ref = propagate(PARAMS, PATH0, 0.0, 0.1, w, substeps=10)
        for k in (2, 4, 6):
            approx, bound = dyson_series(PARAMS, PATH0, 0.0, 0.1, w, k)
            assert kernel_weighted_distance(approx, ref, 0.0) < bound

    def test_remainder_superexponential(self):
        w = Window.symmetric(8)
        bounds = [dyson_series(PARAMS, PATH0, 0.0, 0.1, w, k)[1] for k in (2, 4, 6, 8)]
        ratios = [a / b for a, b in zip(bounds[:-1], bounds[1:])]
        assert all(r > 1 for r in ratios)
        assert ratios[1] > ratios[0] and ratios[2] > ratios[1]


class TestSamplePaths:
    # Pinned sha256 of the sampled positions: a faster sampler must
    # reproduce every draw of every path.  The README path comes from
    # `integrate`, so a change to the integrator's output legitimately
    # moves the first two digests.
    @pytest.mark.parametrize(
        "path_kind, start, times, seed, digest",
        [
            ("readme", "delta", [0.0, 0.5, 1.0], 2024,
             "e0b35c25837a4181fc8e58228bced503bdd14fa15a7c370829a7e76130b84689"),
            ("readme", "gaussian", [0.0, 0.3, 0.5, 1.0], 9,
             "935cd3eb5f89ba62f234b10f2ce291e34bf7f76fffb5d2efb674879960c66bcc"),
            ("constant", "gaussian", [0.0, 0.3, 0.5, 1.0], 9,
             "1212ae5865417c1b6813cbed6de69a619b6333af01bf3f28888a71297125272e"),
        ],
        ids=["readme-delta", "readme-gaussian", "constant-gaussian"],
    )
    def test_golden_output(
        self, readme_path, bench_state0, path_kind, start, times, seed, digest
    ):
        path = readme_path if path_kind == "readme" else PATH0
        w = bench_state0.window
        p0 = bench_state0.p if start == "delta" else fixed_point(PARAMS, 0.3, w).pi
        walks = sample_paths(PARAMS, path, p0, times, 2000, seed=seed)
        assert hashlib.sha256(walks.tobytes()).hexdigest() == digest

    def test_all_start_at_origin(self):
        w = Window.symmetric(8)
        walks = sample_paths(
            PARAMS, PATH0, LatticeMeasure.delta(0, w), [0.0, 0.5], 200, seed=1
        )
        assert (walks[:, 0] == 0).all()

    def test_reproducible(self):
        w = Window.symmetric(8)
        args = (PARAMS, PATH0, LatticeMeasure.delta(0, w), [0.0, 0.3, 0.9], 100)
        a = sample_paths(*args, seed=42)
        b = sample_paths(*args, seed=42)
        c = sample_paths(*args, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stays_on_window(self):
        w = Window.symmetric(5)
        walks = sample_paths(
            PARAMS, PATH0, LatticeMeasure.delta(0, w), [0.0, 1.0, 2.0], 500, seed=0
        )
        assert walks.min() >= w.n_min and walks.max() <= w.n_max

    def test_marginal_matches_dynamics(self):
        w = Window.symmetric(12)
        state0 = SystemState(p=LatticeMeasure.delta(0, w), L=1.3, M=-0.4)
        log = integrate(
            PARAMS, state0, 1.0,
            IntegratorConfig(method="splitting", dt_init=1e-3, n_samples=11),
        )
        path = FrozenPath.from_log(log)
        walks = sample_paths(PARAMS, path, state0.p, [0.0, 1.0], 4000, seed=11)
        counts = np.bincount(walks[:, 1] - w.n_min, minlength=w.size)
        empirical = LatticeMeasure.normalized(w, counts.astype(float))
        # statistical tolerance ~ 3 sqrt(ln(sites)/n)
        assert total_variation(empirical, log.final().p) < 0.05
