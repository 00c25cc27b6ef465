import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwalk import (
    ConstantBeta,
    ModelParams,
    TableBeta,
    Window,
    detailed_balance_residual,
    discrete_gaussian,
    fixed_point,
    K_of_s,
    LinearDriftBeta,
    partition_Xi,
    solve_s_from_K,
)
from nlwalk.equilibrium import FixedPoint
from nlwalk.errors import NoFixedPoint, NumericalError, WindowTooNarrow
from nlwalk.lattice import mean_position

# Frozen oracles: plain fsum over |n| <= 100 (independent of the sites the
# implementation sums over).
XI_ORACLE = 1.772637204826652          # sum e^{-n^2}
D_ORACLE = -0.24979310725444673        # ln(Xi / sum_k e^{-k^2-k})
# d for LinearDriftBeta at c = 43.67, s = -16: 50-digit mpmath over |n + 16| <= 44
D_LINEAR_ORACLE = 15.93651044831143
# the same at c = 300, s = -4, over |n + 4| <= 60
D_LINEAR_ORACLE_300 = 3.995379018796267
C_GRID = (0.05, 0.3, 1.0, 2.5, 5.0)


class TestPartitionXi:
    def test_sharp_gaussian(self):
        assert abs(partition_Xi(100.0, 0.0) - 1.0) < 1e-40

    def test_unit_c(self):
        assert partition_Xi(1.0, 0.0) == pytest.approx(XI_ORACLE, rel=1e-14)

    def test_shift_invariance(self):
        for s in (-1.3, 0.0, 0.4, 2.7):
            assert partition_Xi(1.0, s + 1.0) == pytest.approx(
                partition_Xi(1.0, s), rel=1e-14
            )

    def test_tiny_c(self):
        # the widest Gaussian summed spans about 4e5 sites
        assert partition_Xi(3e-9, 0.0) == pytest.approx(math.sqrt(math.pi / 3e-9), rel=1e-14)
        with pytest.raises(NumericalError):
            partition_Xi(0.99e-9, 0.0)


class TestDiscreteGaussian:
    def test_symmetry(self):
        pi = discrete_gaussian(1.0, 0.0, Window.symmetric(10))
        assert pi[1] == pytest.approx(pi[-1], rel=1e-15)
        assert mean_position(pi) == pytest.approx(0.0, abs=1e-14)

    def test_mode(self):
        pi = discrete_gaussian(1.0, 0.3, Window.symmetric(10))
        assert pi[0] == max(pi[int(n)] for n in pi.window.sites())

    def test_window_too_narrow(self):
        with pytest.raises(WindowTooNarrow):
            discrete_gaussian(0.05, 0.0, Window.symmetric(3))


class TestFixedPoint:
    def test_d_at_zero(self):
        fp = fixed_point(ModelParams(), 0.0, Window.symmetric(25))
        assert fp.d == pytest.approx(D_ORACLE, rel=1e-12)
        assert fp.Xi == pytest.approx(XI_ORACLE, rel=1e-14)

    def test_symmetric_split(self):
        for s in (-1.1, 0.0, 0.7, 2.3):
            fp = fixed_point(ModelParams(), s, Window.symmetric(25))
            assert fp.L_s + fp.M_s == pytest.approx(2 * s, abs=1e-14)
            assert fp.L_s == fp.s + fp.d and fp.M_s == fp.s - fp.d

    def test_no_fixed_point(self):
        with pytest.raises(NoFixedPoint):
            fixed_point(ModelParams(C_mu=2.0), 0.0, Window.symmetric(10))

    def test_sharp_gaussian(self):
        # at s = 0 the denominator's terms at k = 0 and k = -1 are 1 and
        # Xi is 1 to the last bit, so d = -ln 2 / c; exp(-c/4) is 0 at 5000
        for c in (300.0, 5000.0):
            fp = fixed_point(ModelParams(c=c), 0.0, Window.symmetric(3))
            assert fp.d == pytest.approx(-math.log(2.0) / c, rel=1e-15)

    def test_beta_underflow(self):
        # beta(-18) = 18 e^-786 is below the float range, at a weight e^-87
        # below the peak
        c = 43.67
        fp = fixed_point(ModelParams(c=c, beta=LinearDriftBeta(c=c)), -16.0, Window(-26, 21))
        assert fp.d == pytest.approx(D_LINEAR_ORACLE, rel=1e-14)
        # beta(-4) = 4 e^-1200 is below it at the peak
        fp = fixed_point(ModelParams(c=300.0, beta=LinearDriftBeta(c=300.0)), -4.0,
                         Window.symmetric(10))
        assert fp.d == pytest.approx(D_LINEAR_ORACLE_300, rel=1e-14)


def d_mpmath(c, slope, s):
    """d of the LinearDriftBeta fixed point at s, to 50 digits, summed over
    the sites within sqrt(300/c) + 2 of floor(s): every term left out is
    below e^-250 of the largest."""
    with mpmath.workdps(50):
        c, s = mpmath.mpf(c), mpmath.mpf(s)
        reach = math.ceil(math.sqrt(300.0 / float(c))) + 2
        sites = range(math.floor(s) - reach, math.floor(s) + reach + 1)

        def beta(k):
            k = mpmath.mpf(k)
            return slope * ((k + 1) * mpmath.exp(-c * (k + 1)) if k >= 0 else -k * mpmath.exp(c * k))

        xi = mpmath.fsum(mpmath.exp(-c * (n - s) ** 2) for n in sites)
        denom = mpmath.fsum(beta(k) * mpmath.exp(-c * (k - s) * (k - s + 1)) for k in sites)
        return float(mpmath.log(xi / denom) / c)


def test_fixed_point_linear_drift_far_from_zero():
    # c|s| in [700, 760]: beta near s is subnormal or below the float range,
    # and d still matches 50-digit mpmath to the last digits
    r = np.random.default_rng(8)
    for _ in range(32):
        c = float(np.exp(r.uniform(math.log(0.2), math.log(63.0))))
        s = float(r.choice([-1.0, 1.0]) * r.uniform(700.0, 760.0) / c)
        slope = float(r.uniform(0.5, 2.0))
        m = math.ceil(math.sqrt(40.0 / c)) + 3
        params = ModelParams(c=c, beta=LinearDriftBeta(slope=slope, c=c))
        d = fixed_point(params, s, Window(math.floor(s) - m, 2 * m + 2)).d
        assert abs(d - d_mpmath(c, slope, s)) <= 1e-12 * max(1.0, abs(d)), (c, s, slope)


class TestKofS:
    def test_zero(self):
        assert K_of_s(ModelParams(), 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_half(self):
        assert K_of_s(ModelParams(), 0.5) == pytest.approx(1.5, abs=1e-13)

    def test_shift_by_three(self):
        for c in C_GRID:
            params = ModelParams(c=c)
            for s in np.linspace(-2.0, 2.0, 17):
                assert K_of_s(params, s + 1.0) - K_of_s(params, s) == pytest.approx(
                    3.0, abs=1e-12
                )

    def test_strictly_increasing(self):
        params = ModelParams()
        grid = np.arange(-2.0, 2.0, 0.01)
        vals = [K_of_s(params, float(s)) for s in grid]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))


class TestSolveS:
    def test_zero(self):
        assert solve_s_from_K(ModelParams(), 0.0) == pytest.approx(0.0, abs=1e-11)

    def test_shifted(self):
        assert solve_s_from_K(ModelParams(), 3.0) == pytest.approx(1.0, abs=1e-11)

    def test_round_trip(self):
        params = ModelParams()
        s = solve_s_from_K(params, 1.2)
        assert K_of_s(params, s) == pytest.approx(1.2, abs=1e-10)
        for s0 in (-3.0, -0.4, 0.0, 1.7, 3.0):
            back = solve_s_from_K(params, K_of_s(params, s0))
            assert back == pytest.approx(s0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(c=st.floats(0.05, 5.0), K=st.floats(-1e3, 1e3))
    def test_residual_at_float_width(self, c, K):
        params = ModelParams(c=c)
        assert abs(K_of_s(params, solve_s_from_K(params, K)) - K) <= 1e-14 * max(1.0, abs(K))

    def test_bracket_failure_is_numerical(self, monkeypatch):
        monkeypatch.setattr("nlwalk.equilibrium.K_of_s", lambda params, s: 0.0)
        with pytest.raises(NumericalError):
            solve_s_from_K(ModelParams(), 1.0)


class TestDetailedBalance:
    def test_constant_profile(self):
        params = ModelParams()
        for s in (-0.3, 0.0, 1.7):
            fp = fixed_point(params, s, Window.symmetric(25))
            assert detailed_balance_residual(params, fp) < 1e-12

    def test_table_profile(self):
        params = ModelParams(beta=TableBeta(values=(2.0, 3.0, 4.0), n_min=-1))
        fp = fixed_point(params, 0.0, Window.symmetric(25))
        assert detailed_balance_residual(params, fp) < 1e-12

    def test_perturbation_detected(self):
        # the residual has power: moving L off the fixed point breaks Eq-1
        params = ModelParams()
        fp = fixed_point(params, 0.0, Window.symmetric(25))
        bad = FixedPoint(
            s=fp.s, d=fp.d, L_s=fp.L_s + 0.1, M_s=fp.M_s, pi=fp.pi, Xi=fp.Xi
        )
        assert detailed_balance_residual(params, bad) > 0.05
