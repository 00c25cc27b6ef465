import csv
import hashlib
import io
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
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
from nlwalk.errors import NonConstantPath, RateOverflow
from nlwalk.kernel import PATH_CHUNK, _transition_matrix, write_paths_csv
from nlwalk.model import ConstantBeta, rate_arrays

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

    def test_substep_matches_mpmath_expm(self):
        # exp(tau G) against a 60-digit reference, entrywise relative over
        # the entries above 1e-200 (here all of them; the smallest is 7e-40)
        lam, mu = rate_arrays(PARAMS, 1.3, -0.4, Window.symmetric(8))
        tau = 0.02
        P = _transition_matrix(lam, mu, tau)
        n = len(lam)
        with mpmath.workdps(60):
            G = mpmath.zeros(n)
            for i in range(n):
                G[i, i] = -(mpmath.mpf(lam[i]) + mpmath.mpf(mu[i]))
                if i + 1 < n:
                    G[i, i + 1] = mpmath.mpf(lam[i])
                if i > 0:
                    G[i, i - 1] = mpmath.mpf(mu[i])
            E = mpmath.expm(G * mpmath.mpf(tau))
            ref = np.array([[float(E[i, j]) for j in range(n)] for i in range(n)])
        big = ref > 1e-200
        assert (np.abs(P[big] - ref[big]) / ref[big]).max() <= 1e-13

    def test_readme_window(self):
        # the README window: edge rates near 1e11, so dominating rate *
        # substep is about 5e9
        w = Window.symmetric(25)
        P = propagate(PARAMS, PATH0, 0.0, 1.0, w, substeps=50)
        A = propagate(PARAMS, PATH0, 0.0, 0.4, w, substeps=20)
        B = propagate(PARAMS, PATH0, 0.4, 1.0, w, substeps=30)
        assert P.max_row_sum_error() < 1e-10
        assert P.min_entry() >= 0.0
        assert np.abs(A.rows @ B.rows - P.rows).max() < 1e-8

    def test_non_finite_rate_is_rate_overflow(self):
        # beta * e^700 overflows to inf although every exponent is within
        # the window rule; that is a numerical failure (exit 4), not a crash
        params = ModelParams(beta=ConstantBeta(1e10))
        with np.errstate(over="ignore"), pytest.raises(RateOverflow):
            propagate(params, FrozenPath.constant(697.0, 0.0), 0.0, 1.0, Window.symmetric(3), 5)

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

    def test_forward_consistency_on_readme_window(self):
        # the same check on the README window; its far sites hold mass
        # below e^-25 over this span, so the m = 10 bound carries over
        w = Window.symmetric(25)
        state0 = SystemState(p=LatticeMeasure.delta(0, w), L=1.3, M=-0.4)
        log = integrate(
            PARAMS, state0, 0.5,
            IntegratorConfig(method="splitting", dt_init=2.5e-4, n_samples=51),
        )
        path = FrozenPath.from_log(log)
        P = propagate(PARAMS, path, 0.0, 0.5, w, substeps=200)
        marginal = LatticeMeasure.normalized(w, P.apply(state0.p))
        assert total_variation(marginal, log.final().p) < 1e-5

    @given(
        m=st.integers(1, 10),
        L=st.floats(-3.0, 3.0),
        M=st.floats(-3.0, 3.0),
        L1=st.floats(-3.0, 3.0),
        M1=st.floats(-3.0, 3.0),
        tau=st.floats(1e-3, 1.0),
        substeps=st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_expm_product(self, m, L, M, L1, M1, tau, substeps):
        # a two-knot path over [0, substeps * tau]: the product of the
        # substep exponentials, each frozen at its midpoint, as scipy's
        # Pade expm computes it.  That reference is backward stable, so its
        # own error grows like eps * ||hG||: against a 50-digit mpmath expm
        # it is off by 3.3e-12 at m = 10, L = M = -3, tau = 1 (the closure
        # by 2.2e-16).  The bound is 1e-12 plus that growth.
        t1 = substeps * tau
        path = FrozenPath(np.array([0.0, t1]), np.array([L, L1]), np.array([M, M1]))
        w = Window.symmetric(m)
        P = propagate(PARAMS, path, 0.0, t1, w, substeps=substeps)
        ref = np.eye(w.size)
        h = t1 / substeps
        reference_growth = 0.0
        for k in range(substeps):
            gen = generator_at(PARAMS, path, (k + 0.5) * h, w)
            ref = ref @ scipy.linalg.expm(gen.as_matrix() * h)
            reference_growth += np.finfo(float).eps * gen.max_rate * h
        assert P.min_entry() >= 0.0
        assert P.max_row_sum_error() <= 1e-12
        assert np.abs(P.rows - ref).max() <= 1e-12 + reference_growth


class TestDyson:
    def test_requires_constant_path(self):
        moving = FrozenPath(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(NonConstantPath):
            dyson_series(PARAMS, moving, 0.0, 1.0, Window.symmetric(5), [2])

    def test_zero_jump_term_is_survival(self):
        w = Window.symmetric(5)
        gen = generator_at(PARAMS, PATH0, 0.0, w)
        [(approx, _)] = dyson_series(PARAMS, PATH0, 0.0, 0.05, w, k_maxes=[0])
        expected = np.diag(np.exp(gen.diag * 0.05))
        assert np.allclose(approx.rows, expected, rtol=1e-10, atol=1e-300)

    def test_matches_propagate_within_bound(self):
        w = Window.symmetric(8)
        ref = propagate(PARAMS, PATH0, 0.0, 0.1, w, substeps=10)
        for approx, bound in dyson_series(PARAMS, PATH0, 0.0, 0.1, w, (2, 4, 6)):
            assert kernel_weighted_distance(approx, ref, 0.0) < bound

    def test_remainder_superexponential(self):
        w = Window.symmetric(8)
        bounds = [b for _, b in dyson_series(PARAMS, PATH0, 0.0, 0.1, w, (2, 4, 6, 8))]
        ratios = [a / b for a, b in zip(bounds[:-1], bounds[1:])]
        assert all(r > 1 for r in ratios)
        assert ratios[1] > ratios[0] and ratios[2] > ratios[1]

    def test_shared_recursion_equals_separate_calls(self):
        # one recursion up to max(k_maxes) gives each partial sum and
        # bound bit for bit as a call for that k_max alone
        w = Window.symmetric(5)
        shared = dyson_series(PARAMS, PATH0, 0.0, 0.05, w, (4, 0, 2))
        for k, (approx, bound) in zip((4, 0, 2), shared):
            [(alone, alone_bound)] = dyson_series(PARAMS, PATH0, 0.0, 0.05, w, [k])
            assert np.array_equal(approx.rows, alone.rows)
            assert bound == alone_bound


class TestSamplePaths:
    # Pinned sha256 of the sampled positions.  The digests change only
    # when the draws or their addressing change on purpose, and are
    # re-pinned only after test_exact_law and criterion 7 pass.  The README
    # path comes from `integrate`, so a change to the integrator's output
    # also moves the first two digests.
    @pytest.mark.parametrize(
        "path_kind, start, times, seed, digest",
        [
            ("readme", "delta", [0.0, 0.5, 1.0], 2024,
             "f1f3a6e7fe831fbcef0a7f4bea537d97b16251ee034a71481ad11039e79c6b44"),
            ("readme", "gaussian", [0.0, 0.3, 0.5, 1.0], 9,
             "0a3aed2e94dca64c0d99928d5e8c51be80dc0e4bcc8072508992a9ec6aaf460b"),
            ("constant", "gaussian", [0.0, 0.3, 0.5, 1.0], 9,
             "d4a512d264bfa02b463c96667f05a48bb189af21f1703a1d2325174d1f463729"),
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

    @given(
        n_min=st.integers(-6, 6),
        size=st.integers(3, 8),
        c=st.floats(0.5, 1.5),
        gaps=st.lists(st.floats(0.05, 0.5), max_size=3),
        L_values=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        M_values=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_offset_windows_and_prefix_runs(
        self, n_min, size, c, gaps, L_values, M_values, seed
    ):
        # piecewise-linear paths on small windows off the origin: every
        # position stays on the window, and path i does not depend on
        # n_paths, so a k-path run is the first k rows of an n-path run
        times = np.concatenate(([0.0], np.cumsum(gaps)))
        k = len(times)
        path = FrozenPath(times, np.array(L_values[:k]), np.array(M_values[:k]))
        w = Window(n_min, size)
        p0 = LatticeMeasure.normalized(w, np.ones(size))
        params = ModelParams(c=c)
        sample_times = [0.0, 0.3, 0.8, 1.2]
        walks = sample_paths(params, path, p0, sample_times, 12, seed=seed)
        assert walks.min() >= w.n_min and walks.max() <= w.n_max
        prefix = sample_paths(params, path, p0, sample_times, 5, seed=seed)
        assert np.array_equal(walks[:5], prefix)

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_exact_law(self, seed):
        # on a constant path the chain is homogeneous, so the marginals
        # from delta_{-1} are the first row of expm(Q t); each site's count
        # is binomial, checked by its z-score
        params = ModelParams(c=0.8)
        w = Window(-1, 3)
        path = FrozenPath.constant(0.3, -0.2)
        Q = generator_at(params, path, 0.0, w).as_matrix()
        times = [0.0, 0.2, 1.0]
        n = 20_000
        walks = sample_paths(params, path, LatticeMeasure.delta(-1, w), times, n, seed)
        assert (walks[:, 0] == -1).all()
        for k, t in enumerate(times[1:], 1):
            p = scipy.linalg.expm(Q * t)[0]
            counts = np.bincount(walks[:, k] - w.n_min, minlength=w.size)
            z = (counts - n * p) / np.sqrt(n * p * (1 - p))
            assert np.abs(z).max() <= 4.5

    def test_chunk_boundary(self):
        # paths on both sides of the first chunk boundary do not depend on
        # how many paths follow them
        w = Window.symmetric(4)
        p0 = LatticeMeasure.normalized(w, np.ones(w.size))
        args = (PARAMS, PATH0, p0, [0.0, 0.2, 0.5])
        rows = slice(PATH_CHUNK - 3, PATH_CHUNK + 3)
        long = sample_paths(*args, PATH_CHUNK + 50, seed=5)
        short = sample_paths(*args, PATH_CHUNK + 3, seed=5)
        assert np.array_equal(long[rows], short[rows])

    def test_paths_csv_as_csv_writer(self):
        # more rows than one chunk of paths
        walks = np.random.default_rng(0).integers(-25, 26, size=(PATH_CHUNK + 3, 3))
        times = [0.0, 1e-05, 0.1 + 0.2]
        expected = io.StringIO()
        w = csv.writer(expected)
        w.writerow(["path_id", "t", "n"])
        for i, row in enumerate(walks):
            for t, n in zip(times, row):
                w.writerow([i, repr(float(t)), int(n)])
        got = io.StringIO()
        write_paths_csv(walks, np.array(times), got)
        assert got.getvalue() == expected.getvalue()

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
