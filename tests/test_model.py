import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwalk import (
    ConstantBeta,
    LinearDriftBeta,
    ModelParams,
    TableBeta,
    Window,
    check_beta_bounded,
    rate_arrays,
)
from nlwalk.errors import InvalidProfile, RateOverflow
from nlwalk.model import EXP_LIMIT, largest_contraction_constant, log_beta_array


def jump_rates(params, L, M, n):
    """(lambda_n, mu_n) at the given (L, M), site by site from the formulas
    of the model docstring: the scalar oracle for rate_arrays.  Raises
    RateOverflow when an exponent leaves the representable range."""
    a = -params.c * (n - L)
    b = params.c * (n - M)
    if abs(a) > EXP_LIMIT or abs(b) > EXP_LIMIT:
        raise RateOverflow(f"rate exponent out of range at n={n}")
    return math.exp(params.beta.log_value(n) + a), math.exp(params.beta.log_value(n - 1) + b)


def beta_loop(prof, lo, hi):
    """beta(n) for n in [lo, hi], site by site from log_value."""
    return np.exp(np.array([prof.log_value(n) for n in range(lo, hi + 1)], dtype=float))


class TestEvalBeta:
    # beta read at one site, as each profile's log_value

    def test_constant(self):
        assert ConstantBeta(1.0).log_value(7) == 0.0
        assert ConstantBeta(2.5).log_value(-7) == math.log(2.5)

    def test_table_lookup(self):
        prof = TableBeta(values=(2.0, 3.0, 4.0), n_min=-1)
        assert prof.log_value(0) == math.log(3.0)

    def test_table_extension(self):
        prof = TableBeta(values=(2.0, 3.0, 4.0), n_min=-1, right=5.0)
        assert prof.log_value(10) == math.log(5.0)
        assert prof.log_value(-10) == math.log(2.0)  # default left extension

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidProfile):
            TableBeta(values=(1.0, 0.0))
        with pytest.raises(InvalidProfile):
            ConstantBeta(-1.0)

    def test_linear_drift_far_from_zero(self):
        # beta(n) = slope (n+1) e^{-c(n+1)} for n >= 0 and slope |n| e^{cn}
        # below, far outside the float range at these sites; its log is
        # finite and matches 50-digit mpmath
        prof = LinearDriftBeta(slope=0.5, c=0.77)
        for n in (-5000, -1283, -1, 0, 3, 1290, 10**6):
            with mpmath.workdps(50):
                m, c = mpmath.mpf(n), mpmath.mpf(0.77)
                beta = 0.5 * ((m + 1) * mpmath.exp(-c * (m + 1)) if n >= 0 else -m * mpmath.exp(c * m))
                exact = float(mpmath.log(beta))
            assert prof.log_value(n) == pytest.approx(exact, rel=4e-16, abs=1e-15)


class TestJumpRates:
    def test_origin(self):
        lam, mu = jump_rates(ModelParams(), 0.0, 0.0, 0)
        assert lam == 1.0 and mu == 1.0

    def test_site_one(self):
        lam, mu = jump_rates(ModelParams(), 0.0, 0.0, 1)
        assert lam == pytest.approx(math.exp(-1), rel=1e-15)
        assert mu == pytest.approx(math.e, rel=1e-15)

    def test_site_one_shifted(self):
        lam, mu = jump_rates(ModelParams(), 2.0, 2.0, 1)
        assert lam == pytest.approx(math.e, rel=1e-15)
        assert mu == pytest.approx(math.exp(-1), rel=1e-15)

    def test_overflow(self):
        with pytest.raises(RateOverflow):
            jump_rates(ModelParams(), 0.0, 0.0, 10**6)

    @given(
        L=st.floats(-3, 3),
        M=st.floats(-3, 3),
        n=st.integers(-20, 20),
    )
    @settings(max_examples=50, deadline=None)
    def test_product_identity(self, L, M, n):
        # lambda_n * mu_{n+1} = beta(n)^2 e^{c(L-M+1)} exactly: the exponents
        # -c(n-L) and c(n+1-M) sum to c(L-M+1), independent of n
        params = ModelParams()
        lam_n, _ = jump_rates(params, L, M, n)
        _, mu_n1 = jump_rates(params, L, M, n + 1)
        assert lam_n * mu_n1 == pytest.approx(math.exp(L - M + 1), rel=1e-12)

    def test_monotone_in_L_and_minus_M(self):
        params = ModelParams()
        for n in (-3, 0, 4):
            lam0, mu0 = jump_rates(params, 0.0, 0.0, n)
            lam1, _ = jump_rates(params, 0.5, 0.0, n)
            _, mu1 = jump_rates(params, 0.0, -0.5, n)
            assert lam1 > lam0
            assert mu1 > mu0


class TestConditions:
    def test_beta_bounded_constant(self):
        holds, sup = check_beta_bounded(ConstantBeta(1.0), Window.symmetric(10))
        assert holds and sup == 1.0

    def test_beta_bounded_table(self):
        prof = TableBeta(values=(2.0, 3.0, 4.0), left=5.0, right=5.0)
        holds, sup = check_beta_bounded(prof, Window.symmetric(10))
        assert holds and sup == 5.0

    def test_linear_drift_c_must_match_model(self):
        ModelParams(c=0.5, beta=LinearDriftBeta(slope=2.0, c=0.5))
        with pytest.raises(InvalidProfile):
            ModelParams(c=0.7, beta=LinearDriftBeta(slope=2.0, c=0.5))
        with pytest.raises(InvalidProfile):
            ModelParams(beta=LinearDriftBeta(c=1.5))

    def test_beta_bounded_linear_drift_flags_growth(self):
        # profile peaks inside the window; sup is attained at the interior
        # maximum, not the edges
        prof = LinearDriftBeta(slope=1.0, c=1.0)
        holds, sup = check_beta_bounded(prof, Window.symmetric(50))
        assert holds
        assert sup == beta_loop(prof, -50, 50).max()

    # the contraction condition with constant C holds iff C is below
    # largest_contraction_constant

    def test_contraction_constant_true(self):
        # 1/e - 1 = -0.632... < -0.5
        assert largest_contraction_constant(ConstantBeta(1.0), Window.symmetric(10)) > 0.5

    def test_contraction_constant_false(self):
        assert not largest_contraction_constant(ConstantBeta(1.0), Window.symmetric(10)) > 0.7

    def test_contraction_exponential_table_false(self):
        vals = tuple(math.exp(abs(n)) for n in range(-5, 6))
        prof = TableBeta(values=vals, n_min=-5)
        assert not largest_contraction_constant(prof, Window(-5, 11)) > 0.1

    def test_contraction_closed_form_constant(self):
        # for constant(b): true iff b(1/e - 1) < -C
        w = Window.symmetric(8)
        for b in (0.5, 1.0, 2.0):
            for C in (0.1, 0.3, 0.632, 1.0):
                expected = b * (1 / math.e - 1) < -C
                assert (largest_contraction_constant(ConstantBeta(b), w) > C) == expected

    def test_largest_contraction_constant(self):
        C = largest_contraction_constant(ConstantBeta(1.0), Window.symmetric(10))
        assert C == pytest.approx(1 - 1 / math.e, rel=1e-12)

    @pytest.mark.parametrize(
        "prof",
        [
            ConstantBeta(1.0),
            TableBeta((0.5, 2.0, 1.5), n_min=-1, left=3.0),
            TableBeta(tuple(math.exp(-abs(n)) + 2.0 for n in range(-5, 6)), n_min=-5),
            LinearDriftBeta(slope=2.0, c=0.5),
        ],
    )
    def test_window_scans_match_site_loops(self, prof):
        # the scans as site-by-site loops over beta = exp(log_value), with
        # the contraction verdict taken at, just above and just below the
        # largest constant
        inv_e = 1.0 / math.e
        for w in (Window.symmetric(10), Window(-5, 11), Window(3, 20)):
            sites = [int(n) for n in w.sites()]
            beta = dict(zip(range(w.n_min - 1, w.n_max + 2),
                            beta_loop(prof, w.n_min - 1, w.n_max + 1).tolist()))
            sup = max(beta[n] for n in sites)
            if isinstance(prof, TableBeta):
                sup = max(sup, prof.left, prof.right)
            assert check_beta_bounded(prof, w) == (True, sup)
            C_ref = math.inf
            for n in sites:
                C_ref = min(C_ref, beta[n] - inv_e * beta[n + 1])
                C_ref = min(C_ref, beta[n] - inv_e * beta[n - 1])
            assert largest_contraction_constant(prof, w) == C_ref
            for C in (C_ref, math.nextafter(C_ref, 0.0), math.nextafter(C_ref, 9.0), 0.05, 2.0):
                if not C > 0:
                    continue
                verdict = all(
                    inv_e * beta[n + 1] - beta[n] < -C
                    and inv_e * beta[n - 1] - beta[n] < -C
                    for n in sites
                )
                assert (largest_contraction_constant(prof, w) > C) == verdict


class TestRateBoundedness:
    # sup_n lambda_n mu_{n+1} of the untruncated rates, which bounds the
    # off-diagonal part of the generator, and the norm estimate
    # max_n sqrt(lambda_{n-1} mu_n) + sqrt(lambda_n mu_{n+1})

    @staticmethod
    def products(L, M):
        lam, mu = rate_arrays(ModelParams(), L, M, Window.symmetric(10), truncated=False)
        return lam[:-1] * mu[1:]

    def test_sup_at_origin(self):
        # lambda_n mu_{n+1} = e^{L-M+1} = e for all n at L = M = 0, so the
        # norm estimate is 2 sqrt(e)
        prod = self.products(0.0, 0.0)
        root = np.sqrt(prod)
        assert prod.max() == pytest.approx(math.e, rel=1e-12)
        assert (root[:-1] + root[1:]).max() == pytest.approx(2.0 * math.sqrt(math.e), rel=1e-12)
        assert np.isfinite(prod).all()

    def test_sup_with_gap(self):
        assert self.products(1.0, -1.0).max() == pytest.approx(math.exp(3.0), rel=1e-12)


class TestRateArrays:
    def test_truncation_zeroes_edges(self):
        w = Window.symmetric(5)
        lam, mu = rate_arrays(ModelParams(), 0.3, -0.2, w)
        assert lam[-1] == 0.0 and mu[0] == 0.0
        assert (lam[:-1] > 0).all() and (mu[1:] > 0).all()

    def test_untruncated_matches_pointwise(self):
        w = Window.symmetric(5)
        params = ModelParams()
        lam, mu = rate_arrays(params, 0.3, -0.2, w, truncated=False)
        for i, n in enumerate(w.sites()):
            ln, mn = jump_rates(params, 0.3, -0.2, int(n))
            assert lam[i] == pytest.approx(ln, rel=1e-14)
            assert mu[i] == pytest.approx(mn, rel=1e-14)

    @pytest.mark.parametrize("truncated", [True, False])
    @pytest.mark.parametrize(
        "beta",
        [ConstantBeta(1.0), TableBeta((0.5, 2.0, 1.5), n_min=-1), LinearDriftBeta(c=0.7)],
    )
    def test_bit_equal_to_uncached_formula(self, beta, truncated):
        params = ModelParams(c=0.7, beta=beta)
        for w in (Window.symmetric(5), Window(-3, 16), Window(40, 7)):
            for L, M in ((0.3, -0.2), (-2.5, 4.0), (45.0, 41.0)):
                n = w.sites().astype(float)
                log_bn = np.array([beta.log_value(k) for k in range(w.n_min, w.n_max + 1)])
                log_bnm1 = np.array([beta.log_value(k - 1) for k in range(w.n_min, w.n_max + 1)])
                lam_ref = np.exp(log_bn + -params.c * (n - L))
                mu_ref = np.exp(log_bnm1 + params.c * (n - M))
                if truncated:
                    lam_ref[-1] = 0.0
                    mu_ref[0] = 0.0
                lam, mu = rate_arrays(params, L, M, w, truncated=truncated)
                assert np.array_equal(lam, lam_ref) and np.array_equal(mu, mu_ref)

    def test_overflow_detected_at_either_end(self):
        w = Window.symmetric(10)
        with pytest.raises(RateOverflow):
            rate_arrays(ModelParams(), 695.0, 0.0, w)  # -c(n_min - L) = 705
        with pytest.raises(RateOverflow):
            rate_arrays(ModelParams(), 0.0, -695.0, w)  # c(n_max - M) = 705
        rate_arrays(ModelParams(), 685.0, -685.0, w)


class TestBetaArray:
    PROFILES = [
        ConstantBeta(1),
        ConstantBeta(1.0),
        ConstantBeta(2.5),
        TableBeta((0.5, 2.0, 1.5), n_min=-1, left=3.0),
        LinearDriftBeta(slope=2.0, c=0.5),
    ]

    def test_read_only_float(self):
        log_beta_array.cache_clear()
        for prof in self.PROFILES:
            arr = log_beta_array(prof, -4, 4)
            assert arr.dtype == np.float64
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 7.0

    @pytest.mark.parametrize("prof", PROFILES)
    def test_equals_uncached_loop(self, prof):
        for lo, hi in ((-6, 6), (-1, 3), (2, 2)):
            ref = np.array([prof.log_value(n) for n in range(lo, hi + 1)], dtype=float)
            assert np.array_equal(log_beta_array(prof, lo, hi), ref)
            assert log_beta_array(prof, lo, hi) is log_beta_array(prof, lo, hi)
