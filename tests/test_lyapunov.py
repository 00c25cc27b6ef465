import copy
import math

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
    Q_value,
    SystemState,
    TableBeta,
    W_value,
    Window,
    annotate,
    discrete_gaussian,
    entropy_H,
    fixed_point,
    integrate,
    monitor,
    partition_Xi,
    total_variation,
)
from nlwalk.lyapunov import W_increases
from nlwalk.model import rate_arrays

LN_XI = 0.5724683839469007  # ln partition_Xi(1, 0), frozen oracle


class TestQ:
    def test_delta_centered(self):
        state = SystemState(p=LatticeMeasure.delta(0, Window.symmetric(5)), L=0, M=0)
        assert Q_value(ModelParams(), state) == pytest.approx(2.0, rel=1e-15)

    def test_delta_shifted(self):
        state = SystemState(p=LatticeMeasure.delta(0, Window.symmetric(5)), L=1, M=1)
        expected = math.e + math.exp(-1)
        assert Q_value(ModelParams(), state) == pytest.approx(expected, rel=1e-14)

    def test_fixed_point_identity(self):
        # d' = 0 at a fixed point, so e^{d} Q = 2 C_lambda
        params = ModelParams()
        fp = fixed_point(params, 0.4, Window.symmetric(25))
        state = SystemState(p=fp.pi, L=fp.L_s, M=fp.M_s)
        assert math.exp(fp.d) * Q_value(params, state) == pytest.approx(
            2.0 * params.C_lambda, rel=1e-10
        )

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_rate_sum_identity(self, seed):
        # e^{-d} sum p_n (lambda_n + mu_n) = Q at c = 1 (untruncated rates)
        params = ModelParams()
        w = Window.symmetric(8)
        r = np.random.default_rng(seed)
        p = LatticeMeasure.normalized(w, r.random(w.size))
        state = SystemState(p=p, L=r.uniform(-1, 1), M=r.uniform(-1, 1))
        lam, mu = rate_arrays(params, state.L, state.M, w, truncated=False)
        direct = math.exp(-state.d) * float(np.dot(p.values, lam + mu))
        assert Q_value(params, state) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize(
        "beta",
        [ConstantBeta(1.0), TableBeta((0.5, 2.0, 1.5), n_min=-1), LinearDriftBeta()],
    )
    def test_bit_equal_to_inline_formula(self, beta):
        # Q written out from log beta and exp, as Q_value once computed it
        for c in (1.0, 0.7, 1.3):
            if isinstance(beta, LinearDriftBeta):
                beta = LinearDriftBeta(slope=beta.slope, c=c)  # must match
            params = ModelParams(c=c, beta=beta)
            for w in (Window.symmetric(25), Window.symmetric(5), Window(3, 20)):
                r = np.random.default_rng(w.size)
                n = w.sites().astype(float)
                center = float(n.mean())
                p = LatticeMeasure.normalized(w, r.random(w.size))
                state = SystemState(p=p, L=center - 0.6, M=center + 1.1)
                s = state.s
                log_bn = np.array([beta.log_value(k) for k in range(w.n_min, w.n_max + 1)])
                log_bnm1 = np.array([beta.log_value(k - 1) for k in range(w.n_min, w.n_max + 1)])
                terms = np.exp(log_bn + c * (s - n)) + np.exp(log_bnm1 + c * (n - s))
                assert Q_value(params, state) == float(np.dot(p.values, terms))


class TestH:
    def test_delta_at_center(self):
        p = LatticeMeasure.delta(0, Window.symmetric(5))
        assert entropy_H(p, 0.0, 1.0) == 0.0

    def test_delta_off_center(self):
        p = LatticeMeasure.delta(0, Window.symmetric(5))
        assert entropy_H(p, 2.0, 1.0) == pytest.approx(4.0, rel=1e-14)

    def test_gaussian_attains_gibbs_bound(self):
        p = discrete_gaussian(1.0, 0.0, Window.symmetric(12))
        assert entropy_H(p, 0.0, 1.0) == pytest.approx(-LN_XI, rel=1e-12)

    @given(seed=st.integers(0, 10**6), s=st.floats(-1, 1))
    @settings(max_examples=40, deadline=None)
    def test_gibbs_inequality(self, seed, s):
        w = Window.symmetric(10)
        r = np.random.default_rng(seed)
        p = LatticeMeasure.normalized(w, r.random(w.size))
        bound = -math.log(partition_Xi(1.0, s))
        assert entropy_H(p, s, 1.0) >= bound - 1e-12

    def test_gibbs_equality_iff_gaussian(self):
        w = Window.symmetric(12)
        p = discrete_gaussian(1.0, 0.3, w)
        h = entropy_H(p, 0.3, 1.0)
        bound = -math.log(partition_Xi(1.0, 0.3))
        assert abs(h - bound) < 1e-10
        assert total_variation(p, discrete_gaussian(1.0, 0.3, w)) < 1e-8


def _W(state, K, c):
    return W_value(entropy_H(state.p, state.s, c), state.s, K, c)


class TestW:
    def test_delta_zero_state(self):
        state = SystemState(p=LatticeMeasure.delta(0, Window.symmetric(5)), L=0, M=0)
        assert _W(state, K=0.0, c=1.0) == 0.0

    def test_fixed_point_value(self):
        params = ModelParams()
        fp = fixed_point(params, 0.0, Window.symmetric(25))
        state = SystemState(p=fp.pi, L=fp.L_s, M=fp.M_s)
        assert _W(state, K=0.0, c=1.0) == pytest.approx(-LN_XI, rel=1e-12)

    def test_unit_c_keeps_the_bits_of_the_c1_formula(self):
        w = Window.symmetric(8)
        r = np.random.default_rng(3)
        for _ in range(20):
            state = SystemState(
                p=LatticeMeasure.normalized(w, r.random(w.size)),
                L=r.uniform(-2, 2), M=r.uniform(-2, 2),
            )
            K, s = r.uniform(-3, 3), state.s
            expected = entropy_H(state.p, s, 1.0) + 2.0 * K * s - 3.0 * s * s
            assert _W(state, K, c=1.0) == expected

    def test_certified_requires_unit_c(self):
        state = SystemState(p=LatticeMeasure.delta(0, Window.symmetric(5)), L=0, M=0)
        assert math.isfinite(_W(state, K=0.0, c=2.0))


class TestAnnotate:
    def test_one_entropy_sum_per_sample(self, bench_state0, monkeypatch):
        # annotate reads its params from the log, sums each sample's
        # entropy once and forms W from that H: the bits of W_value on
        # entropy_H at the log's c
        params = ModelParams(c=0.5)
        log = integrate(params, bench_state0, 1.0, IntegratorConfig(n_samples=11))
        calls = []

        def spy(p, s, c):
            calls.append(c)
            return entropy_H(p, s, c)

        monkeypatch.setattr("nlwalk.lyapunov.entropy_H", spy)
        annotate(log)
        assert calls == [0.5] * len(log.samples)
        K0 = log.samples[0].K
        for smp in log.samples:
            assert smp.H == entropy_H(smp.state.p, smp.state.s, 0.5)
            assert smp.W == _W(smp.state, K0, 0.5)
            assert smp.Q == Q_value(params, smp.state)


@pytest.fixture(scope="module")
def short_log(bench_params, bench_state0):
    log = integrate(
        bench_params,
        bench_state0,
        3.0,
        IntegratorConfig(dt_init=1e-3, n_samples=31),
    )
    return annotate(log)


def _W_rises(c, beta, n0, L0, M0):
    """(rises of W_c, rises of H + 2Ks - 3s^2) along an integrate run of
    T = 8 with 161 samples, K taken at t = 0."""
    w = Window.symmetric(25)
    params = ModelParams(c=c, beta=ConstantBeta(beta))
    state0 = SystemState(p=LatticeMeasure.delta(n0, w), L=L0, M=M0)
    log = annotate(integrate(params, state0, 8.0, IntegratorConfig(n_samples=161)))
    K0 = log.samples[0].K
    unscaled = [
        entropy_H(smp.state.p, smp.state.s, c) + 2.0 * K0 * smp.state.s - 3.0 * smp.state.s ** 2
        for smp in log.samples
    ]
    return monitor(log).violations, W_increases(unscaled)[0]


class TestWAtEveryC:
    """W_c = H + c(2Ks - 3s^2) falls at every c (dW_c/dt = -sigma, see
    nlwalk.lyapunov); H + 2Ks - 3s^2 does not away from c = 1."""

    def test_unscaled_W_rises_where_W_c_does_not(self):
        # about 100 of the 160 sample steps of the unscaled W rise here
        w_c_rises, unscaled_rises = _W_rises(0.3, 1.0, -3, -2.78, -0.03)
        assert w_c_rises == 0 and unscaled_rises > 50

    @pytest.mark.parametrize("c", [0.1, 0.3, 2.0, 4.0])
    def test_no_W_c_violations(self, c):
        r = np.random.default_rng(int(10 * c))
        for _ in range(2):
            beta = float(r.choice([0.5, 1.0, 2.0]))
            n0 = int(r.integers(-4, 5))
            L0, M0 = r.uniform(-3, 3, size=2).tolist()
            assert _W_rises(c, beta, n0, L0, M0)[0] == 0


class TestMonitor:
    def test_benchmark_monotone(self, short_log):
        report = monitor(short_log)
        assert report.violations == 0
        assert report.q_bounded
        assert report.mean_offset_max <= report.mean_offset_bound + 1e-9

    def test_constant_at_fixed_point(self):
        params = ModelParams()
        fp = fixed_point(params, 0.0, Window.symmetric(25))
        state0 = SystemState(p=fp.pi, L=fp.L_s, M=fp.M_s)
        log = integrate(
            params, state0, 1.0,
            IntegratorConfig(dt_init=1e-3, n_samples=11),
        )
        report = monitor(log)
        assert report.violations == 0
        ws = [s.W for s in log.samples]
        assert max(ws) - min(ws) < 1e-9

    def test_no_q_bound_without_contraction(self):
        # the linear-drift beta at c = 2 has beta(n) < beta(n +- 1) / e near
        # 0: no contraction constant, so Q is only checked to stay finite
        params = ModelParams(c=2.0, beta=LinearDriftBeta(1.0, 2.0))
        state0 = SystemState(p=LatticeMeasure.delta(0, Window.symmetric(8)), L=1.3, M=-0.4)
        report = monitor(integrate(params, state0, 1.0, IntegratorConfig(n_samples=11)))
        assert report.q_bound is None
        assert report.q_bounded
        assert report.violations == 0

    def test_corrupted_log_detected(self, short_log):
        # test of the test: shuffling W values must trigger violations
        bad = copy.deepcopy(short_log)
        ws = [s.W for s in bad.samples]
        r = np.random.default_rng(0)
        r.shuffle(ws)
        for s, w in zip(bad.samples, ws):
            s.W = w
        assert monitor(bad).violations > 0

    def test_non_finite_W_is_a_violation(self, short_log):
        assert W_increases([1.0, math.nan, 0.5]) == (2, 0.0)
        assert W_increases([1.0, -math.inf]) == (1, 0.0)
        assert W_increases([3.0, math.inf, math.inf, 2.0, 2.5]) == (4, 0.5)
        bad = copy.deepcopy(short_log)
        bad.samples[5].W = math.nan
        assert monitor(bad).violations >= 1
