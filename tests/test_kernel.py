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
    Generator,
    IntegratorConfig,
    Kernel,
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
from nlwalk.errors import RateOverflow
from nlwalk.kernel import PATH_CHUNK, _transition_matrix, write_paths_csv
from nlwalk.lattice import log_plus_weights
from nlwalk.model import ConstantBeta, LinearDriftBeta, TableBeta, rate_arrays

L0, M0 = 1.3, -0.4
PATH0 = FrozenPath.constant(L0, M0)
PARAMS = ModelParams()


def mpmath_expm(off, tau, digits, diag=None):
    """exp(tau Q) to the given digits, rounded to floats, for Q with
    off-diagonal part off and diagonal diag, every float taken exactly.
    With diag None, Q's diagonal is minus its off-diagonal row sums, summed
    to those digits, so its rows sum to 0 exactly."""
    with mpmath.workdps(digits):
        Q = mpmath.matrix(off.tolist())
        for i in range(len(off)):
            Q[i, i] = -mpmath.fsum(Q[i, :]) if diag is None else mpmath.mpf(diag[i])
        return np.array(mpmath.expm(Q * mpmath.mpf(tau)).tolist(), dtype=float)


@pytest.fixture(scope="module")
def readme_path(bench_params, bench_state0):
    """The README config's (L, M) path on [0, 1], as criterion 7 samples it."""
    log = integrate(
        bench_params, bench_state0, 1.0,
        IntegratorConfig(dt_init=1e-3, n_samples=21),
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
        assert gen.lam == pytest.approx([math.e, 1.0, 0.0], rel=1e-15)
        assert gen.mu == pytest.approx([0.0, 1.0, math.e], rel=1e-15)
        assert -(gen.lam + gen.mu) == pytest.approx([-math.e, -2.0, -math.e], rel=1e-15)

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


class TestWeightedDistance:
    @pytest.mark.parametrize("alpha", [0.0, 0.7, -0.3])
    def test_matches_row_loop(self, alpha):
        # entries down to e^-600 and rows where the kernels agree, against
        # the row scan written as a loop over the differing entries
        w = Window.symmetric(12)
        rng = np.random.default_rng(3)
        a, b = rng.random((2, w.size, w.size)) * np.exp(-rng.uniform(0, 600, (2, w.size, w.size)))
        b[::3] = a[::3]
        log_w = log_plus_weights(w, alpha)
        expected = max(
            math.fsum(
                math.exp(math.log(abs(x - y)) + log_w[k] - log_w[j])
                for k, (x, y) in enumerate(zip(a[j], b[j])) if x != y
            )
            for j in range(w.size)
        )
        got = kernel_weighted_distance(Kernel(w, a), Kernel(w, b), alpha)
        assert got == pytest.approx(expected, rel=1e-13)


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

    @pytest.mark.parametrize(
        "params, m, L, M, tau, digits, bound",
        [
            (PARAMS, 8, 1.3, -0.4, 0.02, 60, 1e-13),
            (PARAMS, 8, 1.3, -0.4, 1.0, 60, 1e-13),
            (PARAMS, 12, 1.3, -0.4, 0.1, 80, 1e-13),
            (ModelParams(c=1.5, beta=TableBeta((2, 3, 4), n_min=-1)), 10, 1.3, -0.4, 0.1,
             80, 1e-13),
            # a stiff profile over 24 squarings; the relative error grows
            # with the squaring count and reads 1.0e-13 here
            (ModelParams(c=2.5, beta=LinearDriftBeta(1.0, 2.5)), 14, 3.0, -1.5, 0.5,
             80, 1e-12),
        ],
        ids=["m8-tau0.02", "m8-tau1", "m12-tau0.1", "table-m10", "linear-drift-m14"],
    )
    def test_substep_matches_mpmath_expm(self, params, m, L, M, tau, digits, bound):
        # exp(tau G) against a reference to the given digits, entrywise
        # relative over the entries above 1e-280 (at m = 8, tau = 0.02 all
        # of them; the smallest is 7e-40)
        w = Window.symmetric(m)
        gen = Generator(w, *rate_arrays(params, L, M, w))
        P = _transition_matrix(gen, tau)
        ref = mpmath_expm(gen.as_matrix() + np.diag(gen.lam + gen.mu), tau, digits)
        big = ref > 1e-280
        assert (np.abs(P[big] - ref[big]) / ref[big]).max() <= bound

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

    def test_refuses_work_above_the_cap(self, monkeypatch):
        # on [-200, 200] each substep exponential takes 295 squarings of
        # 401 x 401: a two-knot path builds one per substep, about 1e12
        # multiply-adds over 50 substeps, and is refused before the first
        def refuse(gen, tau):
            raise AssertionError("built an exponential before the refusal")

        monkeypatch.setattr("nlwalk.kernel._transition_matrix", refuse)
        path = FrozenPath(np.array([0.0, 1.0]), np.array([1.3, 0.2]), np.array([-0.4, 0.5]))
        with pytest.raises(ValueError, match=r"401 sites needs about 9\.77e\+11 multiply-adds "
                           r"for 50 exponential\(s\) of 295 squarings .* above 1e\+11"):
            propagate(PARAMS, path, 0.0, 1.0, Window.symmetric(200), substeps=50)

    # (L, M) = (1.3, -0.4) on [0, 0.3], (0.2, 0.5) on [0.31, 0.6] and
    # (1.3, -0.4) again from 0.61: over 10 substeps of 0.1 the midpoints
    # read the first pair 3 times, the second 3, then the first 4
    RETURNING = FrozenPath(
        np.array([0.0, 0.3, 0.31, 0.6, 0.61, 1.0]),
        np.array([1.3, 1.3, 0.2, 0.2, 1.3, 1.3]),
        np.array([-0.4, -0.4, 0.5, 0.5, -0.4, -0.4]),
    )

    def test_store_builds_each_distinct_exponential_once(self, count_exponentials):
        # a call without a store keeps its own for the call, so the return
        # to (1.3, -0.4) multiplies by the matrix built for the first run:
        # 2 exponentials, and a caller's store gives the same bits
        w = Window.symmetric(8)
        P = propagate(PARAMS, self.RETURNING, 0.0, 1.0, w, substeps=10)
        assert len(count_exponentials) == 2
        exps = {}
        stored = propagate(PARAMS, self.RETURNING, 0.0, 1.0, w, substeps=10, exps=exps)
        assert len(count_exponentials) == 4
        assert np.array_equal(stored.rows, P.rows)
        assert set(exps) == {(1.3, -0.4, 0.1), (0.2, 0.5, 0.1)}
        # a second call over the same midpoints builds none
        again = propagate(PARAMS, self.RETURNING, 0.0, 1.0, w, substeps=10, exps=exps)
        assert len(count_exponentials) == 4
        assert np.array_equal(again.rows, P.rows)

    def test_first_substep_generator_is_built_once(self, monkeypatch):
        # the work check's generator also builds the first key's
        # exponential when the store misses it: 2 rate tables for the 2
        # distinct keys, not 3, and the kernel is the one the built
        # matrices give when the store holds them
        w = Window.symmetric(8)
        held = {key: _transition_matrix(Generator(w, *rate_arrays(PARAMS, *key[:2], w)), 0.1)
                for key in ((1.3, -0.4, 0.1), (0.2, 0.5, 0.1))}
        reference = propagate(PARAMS, self.RETURNING, 0.0, 1.0, w, substeps=10, exps=held)
        calls = []

        def counted(*args):
            calls.append(args)
            return rate_arrays(*args)

        monkeypatch.setattr("nlwalk.kernel.rate_arrays", counted)
        exps = {}
        P = propagate(PARAMS, self.RETURNING, 0.0, 1.0, w, substeps=10, exps=exps)
        assert len(calls) == 2
        assert np.array_equal(P.rows, reference.rows)
        assert all(np.array_equal(exps[key], held[key]) for key in held)

    def test_without_a_store_every_substep_of_a_moving_path_builds(self, count_exponentials):
        # one exponential per substep on a two-knot path, one on a constant
        w = Window.symmetric(8)
        path = FrozenPath(np.array([0.0, 1.0]), np.array([1.3, 0.2]), np.array([-0.4, 0.5]))
        propagate(PARAMS, path, 0.0, 1.0, w, substeps=20)
        propagate(PARAMS, PATH0, 0.0, 1.0, w, substeps=20)
        assert len(count_exponentials) == 21

    def test_work_estimate_counts_runs_of_equal_keys(self, monkeypatch, count_exponentials):
        # past its last knot a two-knot path holds (0.2, 0.5): on [2, 3]
        # all 10 midpoints give one key, one run.  At its 19 squarings of
        # 17 x 17 over tau = 0.1 the estimate is (26 + 10) 17^3 = 1.8e5
        # multiply-adds for 1 exponential and (260 + 10) 17^3 = 1.3e6 for
        # 10; under a cap of 7.5e5 between them the held span runs and
        # builds 1, and the moving span [0, 1] is refused
        w = Window.symmetric(8)
        path = FrozenPath(np.array([0.0, 1.0]), np.array([1.3, 0.2]), np.array([-0.4, 0.5]))
        reference = propagate(PARAMS, FrozenPath.constant(0.2, 0.5), 2.0, 3.0, w, substeps=10)
        count_exponentials.clear()
        monkeypatch.setattr("nlwalk.kernel._MAX_MADDS", 7.5e5)
        held = propagate(PARAMS, path, 2.0, 3.0, w, substeps=10)
        assert len(count_exponentials) == 1
        assert np.array_equal(held.rows, reference.rows)
        with pytest.raises(ValueError, match=r"17 sites needs about 1\.42e\+06 multiply-adds "
                           r"for 10 exponential\(s\) of 21 squarings"):
            propagate(PARAMS, path, 0.0, 1.0, w, substeps=10)
        assert len(count_exponentials) == 1

    def test_capped_store_keeps_the_kernels(self, monkeypatch, readme_path):
        # kernel-check's P and splits along the dynamics path, with a store
        # capped at two exponentials: past the cap they are built and not
        # kept, and every kernel is bitwise the uncapped one's
        w = Window.symmetric(8)
        spans = [(0.0, 1.0, 50), (0.0, 0.2, 10), (0.2, 1.0, 40), (0.0, 0.5, 25),
                 (0.5, 1.0, 25), (0.0, 0.8, 40), (0.8, 1.0, 10)]
        free, capped = {}, {}
        uncapped = [propagate(PARAMS, readme_path, t0, t1, w, n, exps=free)
                    for t0, t1, n in spans]
        monkeypatch.setattr("nlwalk.kernel._MAX_FLOATS", 2 * w.size**2)
        for (t0, t1, n), ref in zip(spans, uncapped):
            K = propagate(PARAMS, readme_path, t0, t1, w, n, exps=capped)
            assert np.array_equal(K.rows, ref.rows)
            assert len(capped) <= 2
        assert len(capped) == 2 and len(free) > 2

    def test_stored_first_substep_is_still_work_checked(self, monkeypatch):
        # the work estimate reads the first substep's generator even when
        # the store holds its exponential, so the refusal does not change
        w = Window.symmetric(8)
        exps = {(L0, M0, 0.1): np.eye(w.size)}
        monkeypatch.setattr("nlwalk.kernel._MAX_MADDS", 1.0)
        with pytest.raises(ValueError, match="17 sites needs about"):
            propagate(PARAMS, PATH0, 0.0, 1.0, w, substeps=10, exps=exps)

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
        ms = p_small.values @ Ps.rows
        ml = p_large.values @ Pl.rows
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
            IntegratorConfig(dt_init=2.5e-4, n_samples=51),
        )
        path = FrozenPath.from_log(log)
        P = propagate(PARAMS, path, 0.0, 0.5, w, substeps=200)
        marginal = LatticeMeasure.normalized(w, state0.p.values @ P.rows)
        assert total_variation(marginal, log.final().p) < 1e-5

    def test_forward_consistency_on_readme_window(self):
        # the same check on the README window; its far sites hold mass
        # below e^-25 over this span, so the m = 10 bound carries over
        w = Window.symmetric(25)
        state0 = SystemState(p=LatticeMeasure.delta(0, w), L=1.3, M=-0.4)
        log = integrate(
            PARAMS, state0, 0.5,
            IntegratorConfig(dt_init=2.5e-4, n_samples=51),
        )
        path = FrozenPath.from_log(log)
        P = propagate(PARAMS, path, 0.0, 0.5, w, substeps=200)
        marginal = LatticeMeasure.normalized(w, state0.p.values @ P.rows)
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
    @pytest.mark.parametrize("m, tau", [(5, 0.05), (6, 0.1)])
    def test_zero_jump_term_is_survival(self, m, tau):
        # at m = 6, tau = 0.1 the edge sites survive with probability 5e-65
        w = Window.symmetric(m)
        gen = generator_at(PARAMS, PATH0, 0.0, w)
        [(approx, _)] = dyson_series(PARAMS, L0, M0, 0.0, tau, w, k_maxes=[0])
        expected = np.diag(np.exp(-(gen.lam + gen.mu) * tau))
        assert np.allclose(approx.rows, expected, rtol=1e-10, atol=1e-300)

    def test_matches_mpmath_layered_expm(self):
        # the k-jump term is block (0, k) of exp(tau Q) for the layered
        # generator Q: D on the K + 1 diagonal blocks, V on the blocks
        # above them.  Partial sums against a 60-digit reference,
        # entrywise relative over the entries above 1e-280
        K, tau = 2, 0.1
        w = Window.symmetric(6)
        gen = generator_at(PARAMS, PATH0, 0.0, w)
        n = w.size
        D = -(gen.lam + gen.mu)
        V = gen.as_matrix() - np.diag(D)
        E = mpmath_expm(np.kron(np.eye(K + 1, k=1), V), tau, 60, np.tile(D, K + 1))
        ref = np.cumsum([E[:n, b * n:(b + 1) * n] for b in range(K + 1)], axis=0)
        sums = dyson_series(PARAMS, L0, M0, 0.0, tau, w, range(K + 1))
        for (approx, _), exact in zip(sums, ref):
            big = exact > 1e-280
            assert (np.abs(approx.rows[big] - exact[big]) / exact[big]).max() <= 1e-13

    def test_matches_propagate_within_bound(self):
        w = Window.symmetric(8)
        ref = propagate(PARAMS, PATH0, 0.0, 0.1, w, substeps=10)
        for approx, bound in dyson_series(PARAMS, L0, M0, 0.0, 0.1, w, (2, 4, 6)):
            assert kernel_weighted_distance(approx, ref, 0.0) < bound

    def test_remainder_superexponential(self):
        w = Window.symmetric(8)
        bounds = [b for _, b in dyson_series(PARAMS, L0, M0, 0.0, 0.1, w, (2, 4, 6, 8))]
        ratios = [a / b for a, b in zip(bounds[:-1], bounds[1:])]
        assert all(r > 1 for r in ratios)
        assert ratios[1] > ratios[0] and ratios[2] > ratios[1]

    def test_shared_recursion_equals_separate_calls(self):
        # one recursion up to max(k_maxes) gives each partial sum and
        # bound bit for bit as a call for that k_max alone
        w = Window.symmetric(5)
        shared = dyson_series(PARAMS, L0, M0, 0.0, 0.05, w, (4, 0, 2))
        for k, (approx, bound) in zip((4, 0, 2), shared):
            [(alone, alone_bound)] = dyson_series(PARAMS, L0, M0, 0.0, 0.05, w, [k])
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

    @pytest.mark.parametrize("n_paths, lo, hi", [
        (1, 0, 1), (PATH_CHUNK + 3, -40, -30), (500, -3, 4), (0, 0, 1),
    ])
    def test_paths_csv_as_csv_writer_on_random_sites(self, n_paths, lo, hi):
        # every site negative, or around 0, or a single site; random times
        r = np.random.default_rng(n_paths)
        times = np.sort(r.random(4)).tolist()
        walks = r.integers(lo, hi, size=(n_paths, len(times)))
        expected = io.StringIO()
        w = csv.writer(expected)
        w.writerow(["path_id", "t", "n"])
        for i, row in enumerate(walks):
            for t, n in zip(times, row):
                w.writerow([i, repr(float(t)), int(n)])
        got = io.StringIO()
        write_paths_csv(walks, times, got)
        assert got.getvalue() == expected.getvalue()

    def test_paths_csv_writes_one_chunk_at_a_time(self):
        # the header, then one write per PATH_CHUNK paths: the text in
        # memory never holds more than one chunk's rows
        class Spy:
            def __init__(self):
                self.rows = []

            def write(self, text):
                self.rows.append(text.count("\r\n"))

        times = [0.0, 0.5, 1.0]
        walks = np.random.default_rng(3).integers(-5, 6, size=(2 * PATH_CHUNK + 5, 3))
        spy = Spy()
        write_paths_csv(walks, times, spy)
        assert spy.rows == [1, 3 * PATH_CHUNK, 3 * PATH_CHUNK, 3 * 5]

    def test_marginal_matches_dynamics(self):
        w = Window.symmetric(12)
        state0 = SystemState(p=LatticeMeasure.delta(0, w), L=1.3, M=-0.4)
        log = integrate(
            PARAMS, state0, 1.0,
            IntegratorConfig(dt_init=1e-3, n_samples=11),
        )
        path = FrozenPath.from_log(log)
        walks = sample_paths(PARAMS, path, state0.p, [0.0, 1.0], 4000, seed=11)
        counts = np.bincount(walks[:, 1] - w.n_min, minlength=w.size)
        empirical = LatticeMeasure.normalized(w, counts.astype(float))
        # statistical tolerance ~ 3 sqrt(ln(sites)/n)
        assert total_variation(empirical, log.final().p) < 0.05
