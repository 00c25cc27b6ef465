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
from nlwalk.errors import CNotOne
from nlwalk.lyapunov import W_increases
from nlwalk.model import eval_beta, rate_arrays

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
        # Q written out from beta and exp, as Q_value once computed it
        for c in (1.0, 0.7, 1.3):
            params = ModelParams(c=c, beta=beta)
            for w in (Window.symmetric(25), Window.symmetric(5), Window(3, 20)):
                r = np.random.default_rng(w.size)
                n = w.sites().astype(float)
                center = float(n.mean())
                p = LatticeMeasure.normalized(w, r.random(w.size))
                state = SystemState(p=p, L=center - 0.6, M=center + 1.1)
                s = state.s
                bn = np.array([eval_beta(beta, k) for k in range(w.n_min, w.n_max + 1)])
                bnm1 = np.array([eval_beta(beta, k - 1) for k in range(w.n_min, w.n_max + 1)])
                terms = bn * np.exp(c * (s - n)) + bnm1 * np.exp(c * (n - s))
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


class TestW:
    def test_delta_zero_state(self):
        state = SystemState(p=LatticeMeasure.delta(0, Window.symmetric(5)), L=0, M=0)
        assert W_value(state, K=0.0) == 0.0

    def test_fixed_point_value(self):
        params = ModelParams()
        fp = fixed_point(params, 0.0, Window.symmetric(25))
        state = SystemState(p=fp.pi, L=fp.L_s, M=fp.M_s)
        assert W_value(state, K=0.0) == pytest.approx(-LN_XI, rel=1e-12)

    def test_certified_requires_unit_c(self):
        state = SystemState(p=LatticeMeasure.delta(0, Window.symmetric(5)), L=0, M=0)
        with pytest.raises(CNotOne):
            W_value(state, K=0.0, c=2.0, certified=True)
        assert math.isfinite(W_value(state, K=0.0, c=2.0, certified=False))


@pytest.fixture(scope="module")
def short_log(bench_params, bench_state0):
    log = integrate(
        bench_params,
        bench_state0,
        3.0,
        IntegratorConfig(method="splitting", dt_init=1e-3, n_samples=31),
    )
    return annotate(bench_params, log)


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
            IntegratorConfig(method="splitting", dt_init=1e-3, n_samples=11),
        )
        report = monitor(log)
        assert report.violations == 0
        ws = [s.W for s in report.series]
        assert max(ws) - min(ws) < 1e-9

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
