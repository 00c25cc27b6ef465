import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwalk import (
    ConstantBeta,
    IntegratorConfig,
    LatticeMeasure,
    LinearDriftBeta,
    ModelParams,
    SystemState,
    TableBeta,
    Window,
    conserved_K,
    explosion_monitor_ok,
    fixed_point,
    integrate,
    K_of_s,
    rhs,
    rhs_sd,
    solve_s_from_K,
    total_variation,
)
from nlwalk.dynamics import MASS_TOL, NEG_TOL
from nlwalk.errors import NlwalkError, NotMeanReverting, RateOverflow, StepSizeUnderflow
from nlwalk.lyapunov import Q_value
from nlwalk.model import eval_beta, rate_arrays

PROFILES = [ConstantBeta(1.0), TableBeta((0.5, 2.0, 1.5), n_min=-1), LinearDriftBeta()]


def random_state(seed, window=None):
    r = np.random.default_rng(seed)
    w = window or Window.symmetric(8)
    p = LatticeMeasure.normalized(w, r.random(w.size))
    return SystemState(p=p, L=r.uniform(-1, 1), M=r.uniform(-1, 1))


class TestRhs:
    def test_delta_at_origin(self):
        w = Window.symmetric(5)
        state = SystemState(p=LatticeMeasure.delta(0, w), L=0.0, M=0.0)
        params = ModelParams(C_lambda=1.0, C_mu=1.0)
        dp, dL, dM = rhs(params, state)
        assert dp[w.index(-1)] == pytest.approx(1.0)
        assert dp[w.index(0)] == pytest.approx(-2.0)
        assert dp[w.index(1)] == pytest.approx(1.0)
        assert dL == pytest.approx(-1.0 + params.C_lambda)
        assert dM == pytest.approx(1.0 - params.C_mu)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_mass_preserved(self, seed):
        dp, _, _ = rhs(ModelParams(), random_state(seed))
        assert abs(dp.sum()) < 1e-12 * np.abs(dp).max()

    def test_fixed_point_residual_window_sweep(self):
        params = ModelParams()
        for m in (15, 20, 25):
            fp = fixed_point(params, 0.0, Window.symmetric(m))
            state = SystemState(p=fp.pi, L=fp.L_s, M=fp.M_s)
            dp, dL, dM = rhs(params, state)
            residual = np.abs(dp).sum() + abs(dL) + abs(dM)
            assert residual < max(1e-12, 10 * math.exp(-m * m))


class TestRhsSd:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_change_of_variables(self, seed):
        params = ModelParams()
        state = random_state(seed)
        dp, dL, dM = rhs(params, state)
        dp2, ds, dd = rhs_sd(params, state)
        assert np.allclose(dp, dp2, rtol=1e-12, atol=1e-15)
        assert ds == pytest.approx(0.5 * (dL + dM), abs=1e-12)
        assert dd == pytest.approx(0.5 * (dL - dM), abs=1e-12)

    def test_d_equation_reduction(self):
        # dd = -(1/2) e^{c d} Q + C_lambda at c = 1.  Q is defined with the
        # full (untruncated) rates, so use a measure with negligible edge
        # mass where truncation cannot be felt.
        from nlwalk import discrete_gaussian

        params = ModelParams()
        w = Window.symmetric(15)
        state = SystemState(p=discrete_gaussian(1.0, 0.2, w), L=0.9, M=-0.3)
        _, _, dd = rhs_sd(params, state)
        expected = -0.5 * math.exp(state.d) * Q_value(params, state) + params.C_lambda
        assert dd == pytest.approx(expected, rel=1e-12)

    def test_zero_at_fixed_point(self):
        params = ModelParams()
        fp = fixed_point(params, 0.7, Window.symmetric(25))
        state = SystemState(p=fp.pi, L=fp.L_s, M=fp.M_s)
        _, ds, dd = rhs_sd(params, state)
        assert abs(ds) < 1e-10 and abs(dd) < 1e-10

    def test_requires_mean_reverting(self):
        with pytest.raises(NotMeanReverting):
            rhs_sd(ModelParams(C_mu=2.0), random_state(1))

    @pytest.mark.parametrize("beta", PROFILES)
    def test_bit_equal_to_inline_formula(self, beta):
        # the (s, d) rates written out from beta and exp, as rhs_sd once
        # computed them
        for c in (1.0, 0.7, 1.3):
            params = ModelParams(c=c, beta=beta)
            for w in (Window.symmetric(25), Window.symmetric(5), Window(3, 20)):
                r = np.random.default_rng(w.size)
                n = w.sites().astype(float)
                center = float(n.mean())
                p = LatticeMeasure.normalized(w, r.random(w.size))
                state = SystemState(p=p, L=center + 0.8, M=center - 1.7)
                s, d = state.s, state.d
                bn = np.array([eval_beta(beta, k) for k in range(w.n_min, w.n_max + 1)])
                bnm1 = np.array([eval_beta(beta, k - 1) for k in range(w.n_min, w.n_max + 1)])
                a = bn * np.exp(c * (s - n))
                b = bnm1 * np.exp(c * (n - s))
                a[-1] = 0.0
                b[0] = 0.0
                ecd = math.exp(c * d)
                dp_ref = -ecd * (a + b) * p.values
                dp_ref[1:] += ecd * a[:-1] * p.values[:-1]
                dp_ref[:-1] += ecd * b[1:] * p.values[1:]
                sum_a = float(np.dot(p.values, a))
                sum_b = float(np.dot(p.values, b))
                dp, ds, dd = rhs_sd(params, state)
                assert np.array_equal(dp, dp_ref)
                assert ds == -0.5 * ecd * (sum_a - sum_b)
                assert dd == -0.5 * ecd * (sum_a + sum_b) + params.C_lambda


class TestConservedK:
    def test_examples(self):
        w = Window.symmetric(5)
        assert conserved_K(SystemState(p=LatticeMeasure.delta(0, w), L=1, M=1)) == 2.0
        assert conserved_K(SystemState(p=LatticeMeasure.delta(3, w), L=0, M=0)) == 3.0

    def test_matches_K_of_s(self):
        params = ModelParams()
        fp = fixed_point(params, 0.4, Window.symmetric(25))
        state = SystemState(p=fp.pi, L=fp.L_s, M=fp.M_s)
        assert conserved_K(state) == pytest.approx(K_of_s(params, 0.4), abs=1e-12)


class TestIntegrate:
    def test_zero_horizon(self):
        params = ModelParams()
        w = Window.symmetric(8)
        state0 = SystemState(p=LatticeMeasure.delta(0, w), L=0.2, M=-0.1)
        log = integrate(params, state0, 0.0, IntegratorConfig())
        assert len(log.samples) == 1
        assert log.final().L == state0.L

    def test_mass_and_monitors(self, bench_params, bench_state0):
        log = integrate(
            bench_params,
            bench_state0,
            2.0,
            IntegratorConfig(method="splitting", dt_init=1e-3, n_samples=21),
        )
        assert all(abs(s.mass - 1.0) < 1e-9 for s in log.samples)
        assert all(s.min_p >= -1e-9 for s in log.samples)
        assert explosion_monitor_ok(log)
        times = log.times
        assert (np.diff(times) > 0).all()

    def test_splitting_vs_rk4(self):
        # cross-validation of the two integration routes on a narrow window
        # where the explicit method is stable
        params = ModelParams()
        w = Window.symmetric(5)
        state0 = SystemState(p=LatticeMeasure.delta(0, w), L=0.3, M=-0.2)
        a = integrate(
            params, state0, 0.5,
            IntegratorConfig(method="splitting", dt_init=1e-4, n_samples=6),
        )
        b = integrate(
            params, state0, 0.5,
            IntegratorConfig(method="rk4", dt_init=1e-4, n_samples=6),
        )
        assert abs(a.final().L - b.final().L) < 1e-6
        assert abs(a.final().M - b.final().M) < 1e-6
        assert total_variation(a.final().p, b.final().p) < 1e-6

    def test_rk45_agrees(self):
        params = ModelParams()
        w = Window.symmetric(5)
        state0 = SystemState(p=LatticeMeasure.delta(0, w), L=0.3, M=-0.2)
        a = integrate(
            params, state0, 0.5,
            IntegratorConfig(method="splitting", dt_init=1e-4, n_samples=6),
        )
        c = integrate(
            params, state0, 0.5,
            IntegratorConfig(method="rk45", dt_init=1e-4, rel_tol=1e-10,
                             abs_tol=1e-13, n_samples=6),
        )
        assert abs(a.final().L - c.final().L) < 1e-6
        assert total_variation(a.final().p, c.final().p) < 1e-6

    def test_explicit_stability_guard(self, bench_params, bench_state0):
        # window [-25,25] has generator diagonal ~ e^26; explicit RK at
        # dt = 1e-3 must refuse rather than blow up
        with pytest.raises(StepSizeUnderflow):
            integrate(
                bench_params,
                bench_state0,
                0.1,
                IntegratorConfig(method="rk4", dt_init=1e-3),
            )

    def test_d_independence_weak_form(self):
        # same p(0) and s(0), different d(0): both trajectories share K and
        # must settle on the same fixed point
        params = ModelParams()
        w = Window.symmetric(15)
        p0 = LatticeMeasure.delta(0, w)
        s0 = 0.3
        cfg = IntegratorConfig(method="splitting", dt_init=1e-3, n_samples=13)
        runs = []
        for d0 in (0.5, -0.4):
            state0 = SystemState(p=p0, L=s0 + d0, M=s0 - d0)
            runs.append(integrate(params, state0, 12.0, cfg))
        a, b = runs
        assert conserved_K(a.samples[0].state) == pytest.approx(
            conserved_K(b.samples[0].state), abs=1e-14
        )
        assert abs(a.final().s - b.final().s) < 1e-6
        assert total_variation(a.final().p, b.final().p) < 1e-6

    def test_general_C_runs_without_fixed_point(self):
        # C_lambda != C_mu is integrable (global existence needs no
        # equality); only the fixed-point machinery refuses
        params = ModelParams(C_lambda=1.0, C_mu=1.2)
        w = Window.symmetric(12)
        state0 = SystemState(p=LatticeMeasure.delta(0, w), L=0.5, M=-0.5)
        log = integrate(
            params, state0, 1.0,
            IntegratorConfig(method="splitting", dt_init=1e-3, n_samples=5),
        )
        assert explosion_monitor_ok(log)


def _log_digest(log):
    h = hashlib.sha256()
    for smp in log.samples:
        h.update(smp.state.p.values.tobytes())
        h.update(
            np.array(
                [smp.t, smp.state.L, smp.state.M, smp.K, smp.mass, smp.min_p]
            ).tobytes()
        )
    return h.hexdigest()


class TestGoldenSamples:
    """sha256 of every sample's p, t, L, M, K, mass and min_p, pinned so
    that a refactor of the integrators cannot move a single bit."""

    def test_splitting_readme(self, bench_params, bench_state0):
        log = integrate(
            bench_params, bench_state0, 1.0,
            IntegratorConfig(method="splitting", dt_init=1e-3, n_samples=21),
        )
        assert _log_digest(log) == "0cfc86f9e512234520e8788748ad8094f70315f38eec68b2447a2529a2126fac"

    @pytest.mark.parametrize(
        "method, extra, digest",
        [
            ("rk4", {}, "b8052efc4f198636181df574ad542c62a3caac27d5346342bbd4e13baa2d6649"),
            ("rk45", {"rel_tol": 1e-10, "abs_tol": 1e-13},
             "5386a99ef87b43345377c63ecfd716e200696d25997a70f4a8e6155420b4f1a6"),
        ],
    )
    def test_explicit_narrow_window(self, method, extra, digest):
        state0 = SystemState(
            p=LatticeMeasure.delta(0, Window.symmetric(5)), L=0.3, M=-0.2
        )
        log = integrate(
            ModelParams(), state0, 0.5,
            IntegratorConfig(method=method, dt_init=1e-4, n_samples=6, **extra),
        )
        assert _log_digest(log) == digest


class TestSplittingWindowLimit:
    def test_rate_factor_overflow_at_start(self):
        # the splitting factors are the rates at L = M = 0, which must stay
        # within exp(EXP_LIMIT): here c * max|n| = 702
        w = Window(690, 13)
        state0 = SystemState(p=LatticeMeasure.delta(696, w), L=696.0, M=696.0)
        with pytest.raises(RateOverflow, match="out of range on window"):
            integrate(
                ModelParams(), state0, 0.01,
                IntegratorConfig(method="splitting", dt_init=1e-3, n_samples=2),
            )


class TestExtrapolatedSplitting:
    """The splitting method takes Richardson-extrapolated Strang steps,
    (4 S_{h/2}^2 - S_h) / 3, under step-size control."""

    def test_local_error_order_4(self, bench_params, bench_state0):
        # one step from the README state (tolerances loose enough that the
        # first trial step is accepted) against a rel_tol = 1e-13 run: the
        # local error of an order-4 step falls 32x when h is halved
        errors = []
        for h in (0.02, 0.01):
            one = integrate(
                bench_params, bench_state0, h,
                IntegratorConfig(dt_init=h, rel_tol=1.0, abs_tol=1.0, n_samples=2),
            )
            assert (one.steps, one.rejected_steps) == (1, 0)
            ref = integrate(
                bench_params, bench_state0, h,
                IntegratorConfig(dt_init=h, rel_tol=1e-13, abs_tol=1e-16, n_samples=2),
            )
            a, b = one.final(), ref.final()
            errors.append(
                float(np.abs(a.p.values - b.p.values).sum())
                + abs(a.L - b.L) + abs(a.M - b.M)
            )
        assert errors[0] / errors[1] >= 16.0

    def test_readme_accuracy(self, bench_params, bench_window, bench_log_T20):
        samples = bench_log_T20.samples
        K0 = samples[0].K
        assert max(abs(s.K - K0) for s in samples) <= 1e-8
        assert max(abs(s.mass - 1.0) for s in samples) <= 1e-9
        pi_star = fixed_point(
            bench_params, solve_s_from_K(bench_params, K0), bench_window
        ).pi
        assert total_variation(bench_log_T20.final().p, pi_star) <= 1e-8
        assert bench_log_T20.steps < 1000

    def test_step_cut_at_a_sample_keeps_the_step(self, bench_params, bench_state0):
        # an extra sample 1e-9 after t = 10 forces a step of 1e-9; the step
        # after it must not start from 5e-9 and climb back
        ts = list(np.linspace(0.0, 20.0, 21))
        counts = []
        for extra in ([], [10.0 + 1e-9]):
            log = integrate(
                bench_params, bench_state0, 20.0,
                IntegratorConfig(t_samples=ts + extra),
            )
            counts.append(log.steps)
        assert counts[1] <= counts[0] + 2

    def test_unreachable_tolerance_raises(self, bench_params, bench_state0):
        with pytest.raises(StepSizeUnderflow):
            integrate(
                bench_params, bench_state0, 1.0,
                IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300),
            )

    def test_explicit_methods_count_steps(self):
        state0 = SystemState(
            p=LatticeMeasure.delta(0, Window.symmetric(5)), L=0.3, M=-0.2
        )
        rk4 = integrate(
            ModelParams(), state0, 0.5,
            IntegratorConfig(method="rk4", dt_init=1e-3, n_samples=6),
        )
        # ceil(interval / dt_init) equal steps per sample interval
        assert 500 <= rk4.steps <= 505 and rk4.rejected_steps == 0
        rk45 = integrate(
            ModelParams(), state0, 0.5,
            IntegratorConfig(method="rk45", dt_init=1e-4, n_samples=6),
        )
        assert rk45.steps > 5 and rk45.rejected_steps >= 0


@st.composite
def _splitting_cases(draw):
    c = draw(st.floats(0.4, 1.6))
    size = draw(st.integers(3, 41))
    reach = int(600.0 / c)  # c * max|n| <= 600 on the window
    n_min = draw(
        st.one_of(st.integers(-size + 1, 0), st.integers(-reach, reach - size + 1))
    )
    window = Window(n_min, size)
    C_lambda = draw(st.floats(0.5, 2.0))
    C_mu = draw(st.one_of(st.just(C_lambda), st.floats(0.5, 2.0)))
    params = ModelParams(
        c=c, C_lambda=C_lambda, C_mu=C_mu, beta=draw(st.sampled_from(PROFILES))
    )
    state0 = SystemState(
        p=LatticeMeasure.delta(draw(st.integers(n_min, n_min + size - 1)), window),
        L=draw(st.floats(-2.0, 2.0)),
        M=draw(st.floats(-2.0, 2.0)),
    )
    config = IntegratorConfig(
        dt_init=draw(st.floats(1e-4, 1e-1)), n_samples=draw(st.integers(2, 60))
    )
    return params, state0, draw(st.floats(0.01, 5.0)), config


@given(case=_splitting_cases())
@settings(max_examples=30, deadline=None)
def test_splitting_invariants_or_documented_error(case):
    params, state0, T, config = case
    with warnings.catch_warnings():
        # mass on the window edge is reported, not an error
        warnings.filterwarnings("ignore", "boundary mass", RuntimeWarning)
        try:
            log = integrate(params, state0, T, config)
        except NlwalkError:
            return
    for s in log.samples:
        assert np.isfinite(s.state.p.values).all()
        assert math.isfinite(s.state.L) and math.isfinite(s.state.M)
        assert abs(s.mass - 1.0) <= MASS_TOL and s.min_p >= -NEG_TOL
    assert log.samples[-1].t == pytest.approx(state0.t + T)
    if params.mean_reverting:
        # A start whose jump rate R0 is far above the neighbours' couples
        # them through eigenvector entries of size ~1/R0, which float64
        # holds only to ~1e-16 * R0 relative; every transfer out of that
        # site inherits the error, whatever the step size.
        lam, mu = rate_arrays(params, state0.L, state0.M, state0.window)
        R0 = float(np.dot(state0.p.values, lam + mu))
        K0 = log.samples[0].K
        assert max(abs(s.K - K0) for s in log.samples) <= max(1e-7, 1e-16 * R0)
