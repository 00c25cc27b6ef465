import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal, expm

from nlwalk import (
    ConstantBeta,
    Generator,
    IntegratorConfig,
    LatticeMeasure,
    LinearDriftBeta,
    ModelParams,
    SystemState,
    TableBeta,
    Window,
    conserved_K,
    fixed_point,
    integrate,
    K_of_s,
    rhs,
    solve_s_from_K,
    total_variation,
)
from nlwalk import dynamics
from nlwalk.cli import main
from nlwalk.dynamics import (
    MASS_TOL,
    NEG_TOL,
    TRUNC_TOL,
    _band,
    _extrapolated_step,
    _pflow,
    _splitting_advance,
)
from nlwalk.errors import NlwalkError, NumericalError, RateOverflow, StepSizeUnderflow
from nlwalk.lyapunov import Q_value
from nlwalk.model import EXP_LIMIT, rate_arrays

PROFILES = [ConstantBeta(1.0), TableBeta((0.5, 2.0, 1.5), n_min=-1), LinearDriftBeta()]


def random_state(seed, window=None):
    r = np.random.default_rng(seed)
    w = window or Window.symmetric(8)
    p = LatticeMeasure.normalized(w, r.random(w.size))
    return SystemState(p=p, L=r.uniform(-1, 1), M=r.uniform(-1, 1))


def within_no_explosion_bounds(log, slack=1e-7):
    """L(t) <= L0 + C_lambda*t and M(t) >= M0 - C_mu*t on every sample."""
    s0, params = log.samples[0], log.params
    return all(
        s.state.L <= s0.state.L + params.C_lambda * (s.t - s0.t) + slack
        and s.state.M >= s0.state.M - params.C_mu * (s.t - s0.t) - slack
        for s in log.samples
    )


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
    """rhs in the coordinates s = (L + M)/2, d = (L - M)/2, where the rates
    factor as lambda_n = e^{cd} beta(n) e^{c(s-n)} and
    mu_n = e^{cd} beta(n-1) e^{c(n-s)}."""

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_change_of_variables(self, seed):
        # The factored form is summed in 50 digits from the same float inputs,
        # so the tolerance bounds rhs's own rounding alone; a double-precision
        # reference carries about as much rounding as rhs (terms near 1e3).
        params = ModelParams()
        state = random_state(seed)
        _, dL, dM = rhs(params, state)
        sites = [int(k) for k in state.window.sites()]
        with mpmath.workdps(50):
            c = mpmath.mpf(params.c)
            s = (mpmath.mpf(state.L) + mpmath.mpf(state.M)) / 2
            d = (mpmath.mpf(state.L) - mpmath.mpf(state.M)) / 2
            a = [mpmath.exp(params.beta.log_value(k) + c * (s - k)) for k in sites[:-1]]
            b = [mpmath.exp(params.beta.log_value(k - 1) + c * (k - s)) for k in sites[1:]]
            p = [mpmath.mpf(x) for x in state.p.values]
            sum_a = mpmath.fsum(x * y for x, y in zip(p[:-1], a))
            sum_b = mpmath.fsum(x * y for x, y in zip(p[1:], b))
            ecd = mpmath.exp(c * d)
            half_sum = float(-ecd * (sum_a - sum_b) / 2)
            half_diff = float(-ecd * (sum_a + sum_b) / 2 + params.C_lambda)
        assert 0.5 * (dL + dM) == pytest.approx(half_sum, abs=1e-12)
        assert 0.5 * (dL - dM) == pytest.approx(half_diff, abs=1e-12)

    def test_d_equation_reduction(self):
        # dd = -(1/2) e^{c d} Q + C_lambda at c = 1.  Q is defined with the
        # full (untruncated) rates, so use a measure with negligible edge
        # mass where truncation cannot be felt.
        from nlwalk import discrete_gaussian

        params = ModelParams()
        w = Window.symmetric(15)
        state = SystemState(p=discrete_gaussian(1.0, 0.2, w), L=0.9, M=-0.3)
        _, dL, dM = rhs(params, state)
        expected = -0.5 * math.exp(state.d) * Q_value(params, state) + params.C_lambda
        assert 0.5 * (dL - dM) == pytest.approx(expected, rel=1e-12)

    def test_zero_at_fixed_point(self):
        params = ModelParams()
        fp = fixed_point(params, 0.7, Window.symmetric(25))
        state = SystemState(p=fp.pi, L=fp.L_s, M=fp.M_s)
        _, dL, dM = rhs(params, state)
        ds, dd = 0.5 * (dL + dM), 0.5 * (dL - dM)
        assert abs(ds) < 1e-10 and abs(dd) < 1e-10

    @pytest.mark.parametrize("beta", PROFILES)
    def test_bit_equal_to_inline_formula(self, beta):
        # the truncated generator written out from beta and exp
        for c in (1.0, 0.7, 1.3):
            if isinstance(beta, LinearDriftBeta):
                beta = LinearDriftBeta(slope=beta.slope, c=c)  # must match
            params = ModelParams(c=c, beta=beta)
            for w in (Window.symmetric(25), Window.symmetric(5), Window(3, 20)):
                r = np.random.default_rng(w.size)
                n = w.sites().astype(float)
                center = float(n.mean())
                p = LatticeMeasure.normalized(w, r.random(w.size))
                state = SystemState(p=p, L=center + 0.8, M=center - 1.7)
                L, M = state.L, state.M
                log_bn = np.array([beta.log_value(k) for k in range(w.n_min, w.n_max + 1)])
                log_bnm1 = np.array([beta.log_value(k - 1) for k in range(w.n_min, w.n_max + 1)])
                lam = np.exp(log_bn + -c * (n - L))
                mu = np.exp(log_bnm1 + c * (n - M))
                lam[-1] = 0.0
                mu[0] = 0.0
                dp_ref = -(lam + mu) * p.values
                dp_ref[1:] += lam[:-1] * p.values[:-1]
                dp_ref[:-1] += mu[1:] * p.values[1:]
                dp, dL, dM = rhs(params, state)
                assert np.array_equal(dp, dp_ref)
                assert dL == -float(np.dot(p.values, lam)) + params.C_lambda
                assert dM == float(np.dot(p.values, mu)) - params.C_mu


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

    def test_equals_the_K_integrate_records(self):
        # both sum the positions from the window centre, so they agree bit
        # for bit on offset windows too: simulate's s* and solve-s's s*
        # solve for one K
        r = np.random.default_rng(7)
        for _ in range(300):
            w = Window(int(r.integers(-40, 40)), int(r.integers(3, 30)))
            values = r.random(w.size)
            values[[0, -1]] = 0.0  # no boundary-mass warning
            state0 = SystemState(
                p=LatticeMeasure.normalized(w, values),
                L=r.uniform(-2.0, 2.0), M=r.uniform(-2.0, 2.0),
            )
            log = integrate(ModelParams(), state0, 0.0, IntegratorConfig())
            assert conserved_K(state0) == log.samples[0].K


class TestIntegrate:
    def test_zero_horizon(self):
        params = ModelParams()
        w = Window.symmetric(8)
        state0 = SystemState(p=LatticeMeasure.delta(0, w), L=0.2, M=-0.1)
        log = integrate(params, state0, 0.0, IntegratorConfig())
        assert len(log.samples) == 1
        assert log.final().L == state0.L

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["dt_init", "rel_tol"])
    def test_non_finite_config_rejected(self, key, value):
        # an infinite tolerance would accept every step unchecked
        with pytest.raises(ValueError, match="positive and finite"):
            IntegratorConfig(**{key: value})

    def test_rate_table_overflow(self):
        # beta = 1e300 times e^25 at the window edge is past the float range
        w = Window.symmetric(25)
        state0 = SystemState(p=LatticeMeasure.delta(0, w), L=0.0, M=0.0)
        with pytest.raises(RateOverflow, match="jump rates overflowed"):
            integrate(
                ModelParams(beta=ConstantBeta(1e300)), state0, 1.0,
                IntegratorConfig(n_samples=2),
            )

    def test_mass_and_monitors(self, bench_params, bench_state0):
        log = integrate(
            bench_params,
            bench_state0,
            2.0,
            IntegratorConfig(dt_init=1e-3, n_samples=21),
        )
        assert all(abs(s.mass - 1.0) < 1e-9 for s in log.samples)
        assert all(s.min_p >= -1e-9 for s in log.samples)
        assert within_no_explosion_bounds(log)
        times = log.times
        assert (np.diff(times) > 0).all()

    def test_splitting_vs_dop853(self):
        # the splitting integrator against an rtol = 1e-13 order-8
        # Runge-Kutta solution of rhs on a narrow window
        params = ModelParams()
        w = Window.symmetric(5)
        state0 = SystemState(p=LatticeMeasure.delta(0, w), L=0.3, M=-0.2)
        a = integrate(params, state0, 0.5, IntegratorConfig(dt_init=1e-4, n_samples=6))

        def f(t, y):
            state = SystemState(p=LatticeMeasure(w, y[:-2]), L=y[-2], M=y[-1])
            dp, dL, dM = rhs(params, state)
            return np.concatenate([dp, [dL, dM]])

        y0 = np.concatenate([state0.p.values, [state0.L, state0.M]])
        ref = solve_ivp(f, (0.0, 0.5), y0, method="DOP853", rtol=1e-13, atol=1e-15)
        y = ref.y[:, -1]
        assert ref.success and ref.t[-1] == 0.5
        assert abs(a.final().L - y[-2]) < 1e-10
        assert abs(a.final().M - y[-1]) < 1e-10
        assert total_variation(a.final().p, LatticeMeasure(w, y[:-2])) < 1e-10

    def test_d_independence_weak_form(self):
        # same p(0) and s(0), different d(0): both trajectories share K and
        # must settle on the same fixed point
        params = ModelParams()
        w = Window.symmetric(15)
        p0 = LatticeMeasure.delta(0, w)
        s0 = 0.3
        cfg = IntegratorConfig(dt_init=1e-3, n_samples=13)
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
            IntegratorConfig(dt_init=1e-3, n_samples=5),
        )
        assert within_no_explosion_bounds(log)


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
    that a refactor of the integrator cannot move a single bit."""

    def test_splitting_readme(self, bench_params, bench_state0):
        log = integrate(
            bench_params, bench_state0, 1.0,
            IntegratorConfig(dt_init=1e-3, n_samples=21),
        )
        assert _log_digest(log) == "1519bfb9316cb37bc0d1fe0040b4dcb95265f2c45ef92802baa56dee85df8ce8"


def _full_window_samples(params, state0, T, config):
    """(p, L, M, K) at every sample of integrate's grid, with each
    interval's steps on the whole window and each sample clipped and
    renormalized as integrate records it."""
    w = state0.window
    ref = 0.5 * (w.n_min + w.n_max)
    n = w.sites() - ref
    a_vec, b_vec = rate_arrays(params, ref, ref, w)
    p, L, M, h = state0.p.values, state0.L - ref, state0.M - ref, config.dt_init
    out = [(p, state0.L, state0.M, conserved_K(state0))]
    ts = np.linspace(state0.t, state0.t + T, config.n_samples)
    for span in zip(ts[:-1], ts[1:]):
        p, L, M, h, _, _ = _splitting_advance(
            params, a_vec, b_vec, n, p, L, M, span, h, config
        )
        K = L + M + 3.0 * ref + float(np.dot(n, p))
        p = LatticeMeasure.normalized(w, p).values
        out.append((p, L + ref, M + ref, K))
    return out


@st.composite
def _model_on_window(draw):
    """(params, window): c in [0.05, 5], any profile, 3-60 sites."""
    c = draw(st.floats(0.05, 5.0))
    beta = draw(st.sampled_from(PROFILES))
    if isinstance(beta, LinearDriftBeta):
        beta = LinearDriftBeta(slope=beta.slope, c=c)  # must match the model's c
    window = Window(draw(st.integers(-100, 100)), draw(st.integers(3, 60)))
    return ModelParams(c=c, beta=beta), window


def _draw_run(draw, size):
    """(start, p): a measure on `size` sites, on a run from `start` whose
    weights spread over e^-80 .. 1."""
    logs = draw(st.lists(st.floats(-80.0, 0.0), min_size=1, max_size=size))
    start = draw(st.integers(0, size - len(logs)))
    p = np.zeros(size)
    p[start:start + len(logs)] = np.exp(logs)
    return start, p / p.sum()


@st.composite
def _band_cases(draw):
    """(params, window, p, L, M, dt), p on a run of sites that the band
    may cut."""
    params, window = draw(_model_on_window())
    _, p = _draw_run(draw, window.size)
    centre = window.n_min + 0.5 * (window.size - 1)
    L = centre + draw(st.floats(-10.0, 10.0))
    M = centre + draw(st.floats(-10.0, 10.0))
    return params, window, p, L, M, draw(st.floats(1e-4, 2.0))


class TestBand:
    """Each sample interval's steps run on a band of sites with killing
    edges; the band's truncation bound is computed, not guessed."""

    @pytest.mark.parametrize(
        "m, T, n_samples", [(25, 1.0, 21), (25, 20.0, 201), (8, 1.0, 201)],
        ids=["readme-T1", "readme-T20", "m8-T1"],
    )
    def test_matches_full_window(self, bench_params, m, T, n_samples):
        # bounds stated before the change: per sample 1e-12 in L1 and in
        # L, M and K
        w = Window.symmetric(m)
        state0 = SystemState(p=LatticeMeasure.delta(0, w), L=1.3, M=-0.4)
        config = IntegratorConfig(dt_init=1e-3, n_samples=n_samples)
        log = integrate(bench_params, state0, T, config)
        ref = _full_window_samples(bench_params, state0, T, config)
        for smp, (p, L, M, K) in zip(log.samples, ref, strict=True):
            assert np.abs(smp.state.p.values - p).sum() <= 1e-12
            assert abs(smp.state.L - L) <= 1e-12
            assert abs(smp.state.M - M) <= 1e-12
            assert abs(smp.K - K) <= 1e-12
        assert 0 < log.band_max <= w.size
        assert log.truncation_max <= TRUNC_TOL
        if m == 25:
            # the band stays off the window edges
            assert log.band_max < w.size
            assert all(s.boundary_mass == 0.0 for s in log.samples[1:])

    @pytest.mark.parametrize(
        "beta, c, window, centre, core, L, M, dt, reaches_edge",
        [
            # README: a Gaussian cut to a core well inside the window, and
            # uncut (its tails are dropped)
            (ConstantBeta(), 1.0, Window.symmetric(25), 0, 3, 1.3, -0.4, 0.1, False),
            (ConstantBeta(), 1.0, Window.symmetric(25), 0, 3, 1.3, -0.4, 1.0, False),
            (ConstantBeta(), 1.0, Window.symmetric(25), 0, None, 1.3, -0.4, 0.1, False),
            # large outward rates near the right edge: the margin reaches it
            (TableBeta((2.0, 3.0, 4.0), n_min=-1), 1.5, Window(-8, 17), 6, 1,
             6.5, 5.0, 0.1, True),
            (LinearDriftBeta(2.0, 0.7), 0.7, Window(-8, 17), 5, 1, 9.0, 6.0, 0.5, True),
        ],
        ids=["readme-core", "readme-core-dt1", "readme-uncut", "table-edge",
             "linear-drift-edge"],
    )
    def test_leak_bound(self, beta, c, window, centre, core, L, M, dt, reaches_edge):
        # the mass exp(dt G) moves outside the band, from the interval's
        # start rates and from its largest rates, against the bound
        params = ModelParams(c=c, beta=beta)
        n = window.sites()
        p = np.exp(-c * (n - centre) ** 2.0)
        if core is not None:
            p[np.abs(n - centre) > core] = 0.0
        p /= p.sum()
        ref = 0.5 * (window.n_min + window.n_max)
        a_vec, b_vec = rate_arrays(params, ref, ref, window)
        lo, hi, bound = _band(
            params, a_vec.tolist(), b_vec.tolist(), p, L - ref, M - ref, dt
        )
        assert 0.0 < bound <= TRUNC_TOL
        assert lo > 0
        assert (hi == window.size) == reaches_edge
        for L_t, M_t in ((L, M), (L + params.C_lambda * dt, M - params.C_mu * dt)):
            G = Generator(window, *rate_arrays(params, L_t, M_t, window)).as_matrix()
            q = p @ expm(dt * G)
            assert q[:lo].sum() + q[hi:].sum() <= bound

    def test_start_past_the_exponent_range_takes_the_window(
        self, bench_params, bench_window, tmp_path, capsys
    ):
        # the README config at l0 = 699.95: over the first interval (0.1)
        # c(L + C_lambda dt) passes EXP_LIMIT, so the band is the whole
        # window with nothing dropped, and simulate ends as a numerical
        # failure, one error line and exit 4.  The config's other keys
        # are the README's, which are the defaults
        p = LatticeMeasure.delta(0, bench_window).values
        a_vec, b_vec = rate_arrays(bench_params, 0.0, 0.0, bench_window)
        band = _band(bench_params, a_vec.tolist(), b_vec.tolist(), p, 699.95, -0.4, 0.1)
        assert band == (0, 51, 0.0)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[initial]\np = delta:0\nl0 = 699.95\nm0 = -0.4\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_start_past_the_exponent_range_is_refused_before_any_step(
        self, tmp_path, capsys, monkeypatch
    ):
        # at l0 = 699.95 the start's own rate exponent c(L - n_min) passes
        # EXP_LIMIT, so integrate refuses it as rate_arrays would, naming
        # (L, M), and halves no step
        def step(*args, **kwargs):
            raise AssertionError("stepped before the refusal")

        monkeypatch.setattr(dynamics, "_extrapolated_step", step)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[initial]\np = delta:0\nl0 = 699.95\nm0 = -0.4\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: rate exponent out of range on window Window(n_min=-25, size=51) "
            "(L=699.95, M=-0.4)"
        ]

    def test_rate_weight_keeps_a_fast_site(self, bench_params):
        # 1e-16 of mass at n = -25, where lambda * dt is about 1e10, carries
        # 1e-6 of the flow's sum p.a: the band keeps it although its mass
        # is below TRUNC_TOL / 4
        w = Window.symmetric(25)
        n = w.sites()
        p = np.exp(-((n - 0.45) ** 2.0))
        p[np.abs(n) > 5] = 0.0
        p[0] = 1e-16
        p /= p.sum()
        a_vec, b_vec = rate_arrays(bench_params, 0.0, 0.0, w)
        lo, hi, bound = _band(
            bench_params, a_vec.tolist(), b_vec.tolist(), p, 1.3, -0.4, 0.1
        )
        assert lo == 0 and hi < w.size and bound <= TRUNC_TOL

    @pytest.mark.parametrize(
        "C, window, site, L, M, T, n_samples",
        [(1.4, Window(-8, 34), -8, 7.5, 9.0, 0.95, 34),
         (1.0, Window(0, 41), 0, 20.0, 20.0, 0.5, 11)],
        ids=["left-edge", "far-left"],
    )
    @pytest.mark.filterwarnings("ignore:boundary mass:RuntimeWarning")
    def test_stiff_start_keeps_its_mass(self, C, window, site, L, M, T, n_samples):
        # a start far left of (L + M) / 2, whose band is cut on the far
        # side: swept by the eigensolver in the other direction than the
        # window, the band drifted 2.2e-9 to 3.4e-9 in mass and the run
        # stopped; the full window holds the mass to 1e-12
        params = ModelParams(c=0.5, C_lambda=C, C_mu=C)
        state0 = SystemState(p=LatticeMeasure.delta(site, window), L=L, M=M)
        log = integrate(
            params, state0, T, IntegratorConfig(dt_init=0.01, n_samples=n_samples)
        )
        assert max(abs(s.mass - 1.0) for s in log.samples) <= 1e-11

    def test_leak_bound_is_nearly_attained_on_a_birth_chain(self):
        # beta(n) = e^n past the start site makes lambda = 1 on the right
        # margin, and M = 100 makes mu negligible: the walker at site 2
        # (rate 1e6) leaves the band with r unit-rate jumps, so at the
        # interval's largest rates the Poisson tail is nearly the leak
        w = Window(0, 30)
        beta = TableBeta(
            (1.0, 1.0, 1e6 * math.e**2) + tuple(math.e**k for k in range(3, 30))
        )
        params = ModelParams(beta=beta)
        L, M, dt = 0.0, 100.0, 0.5
        p = np.zeros(w.size)
        p[2] = 1.0
        ref = 0.5 * (w.n_min + w.n_max)
        a_vec, b_vec = rate_arrays(params, ref, ref, w)
        lo, hi, bound = _band(
            params, a_vec.tolist(), b_vec.tolist(), p, L - ref, M - ref, dt
        )
        assert hi == 20 and bound <= TRUNC_TOL
        lam, mu = rate_arrays(params, L + dt, M - dt, w)
        q = p @ expm(dt * Generator(w, lam, mu).as_matrix())
        assert 0.3 * bound <= q[hi:].sum() <= bound

    @given(case=_band_cases())
    @settings(max_examples=100, deadline=None)
    def test_band_invariants(self, case):
        params, window, p, L, M, dt = case
        ref = 0.5 * (window.n_min + window.n_max)
        a_vec, b_vec = rate_arrays(params, ref, ref, window)
        lo, hi, bound = _band(
            params, a_vec.tolist(), b_vec.tolist(), p, L - ref, M - ref, dt
        )
        # the eigensolver (LAPACK dstev) refuses a 1-site band
        assert 0 <= lo and hi <= window.size and hi - lo >= 2
        assert 0.0 <= bound <= TRUNC_TOL
        # the sites off the band are dropped sites, counted in the bound
        assert math.fsum(p[:lo]) + math.fsum(p[hi:]) <= bound * (1 + 1e-12)


def _scipy_pflow(params, a_vec, b_vec, n, p, L, M, h):
    """The measure step on scipy's eigh_tridiagonal wrapper, with the
    conjugation masked on every call: the route _pflow must match bit for
    bit."""
    c = params.c
    up, down = math.exp(c * L), math.exp(-c * M)
    if math.isinf(float(a_vec.max()) * up) or math.isinf(float(b_vec.max()) * down):
        raise RateOverflow("jump rates overflowed on the window")
    lam = a_vec * up
    mu = b_vec * down
    diag = -(lam + mu)
    off = np.sqrt(lam[:-1] * mu[1:])
    s_bar = 0.5 * (L + M)
    expo = 0.5 * c * (n - s_bar) ** 2
    big = expo > EXP_LIMIT
    if big.any() and np.abs(p[big]).max() > 1e-250:
        raise RateOverflow("measure mass too far from (L+M)/2 for the window")
    q = np.zeros_like(p)
    small = ~big
    q[small] = p[small] * np.exp(expo[small])
    w, U = eigh_tridiagonal(diag, off, lapack_driver="stev", check_finite=False)
    r = U @ (np.exp(w * h) * (U.T @ q))
    out = np.zeros_like(p)
    out[small] = r[small] * np.exp(-expo[small])
    return out


def _reference_zflow(params, a_vec, b_vec, p, L, M, h):
    """The (L, M) half-step forming its frozen measure's sums p.a and p.b
    itself, as each half-step once did."""
    c = params.c
    if max(abs(c * L), abs(c * M)) > EXP_LIMIT:
        raise RateOverflow(
            f"barrier exponent out of range (L={L}, M={M} from the window "
            f"centre, c={c})"
        )
    A = float(np.dot(p, a_vec))
    B = float(np.dot(p, b_vec))
    xL = c * params.C_lambda * h
    xM = c * params.C_mu * h
    u = math.exp(-c * L) * math.exp(-xL) - A / params.C_lambda * math.expm1(-xL)
    v = math.exp(c * M) * math.exp(-xM) - B / params.C_mu * math.expm1(-xM)
    if not (u > 0 and v > 0):
        raise RateOverflow("(L, M) flow left the representable range")
    return -math.log(u) / c, math.log(v) / c


def _reference_extrapolated_step(params, a_vec, b_vec, n, p, L, M, h, config):
    """(4 S_{h/2}^2 - S_h) / 3 and its error from three Strang steps on
    _reference_zflow and _scipy_pflow, every sum and maximum formed where
    it is read: the route _extrapolated_step must match bit for bit."""
    def strang(p, L, M, h):
        L, M = _reference_zflow(params, a_vec, b_vec, p, L, M, 0.5 * h)
        p = _scipy_pflow(params, a_vec, b_vec, n, p, L, M, h)
        L, M = _reference_zflow(params, a_vec, b_vec, p, L, M, 0.5 * h)
        return p, L, M

    p1, L1, M1 = strang(p, L, M, h)
    p2, L2, M2 = strang(p, L, M, 0.5 * h)
    p2, L2, M2 = strang(p2, L2, M2, 0.5 * h)
    err_p = float(np.abs(p2 - p1).sum())
    err_z = params.c * max(abs(L2 - L1), abs(M2 - M1))
    err = max(err_p, err_z) / (3.0 * config.rel_tol)
    if not math.isfinite(err_p + err_z):
        err = math.nan
    return (4.0 * p2 - p1) / 3.0, (4.0 * L2 - L1) / 3.0, (4.0 * M2 - M1) / 3.0, err


def _pflow_at_band_maxima(params, a_vec, b_vec, n, p, L, M, h):
    """_pflow given the band's rate maxima, as _splitting_advance takes
    them once per interval."""
    return _pflow(params, a_vec, b_vec, n, p, L, M, h,
                  float(a_vec.max()), float(b_vec.max()))


@st.composite
def _measure_steps(draw):
    """_pflow's arguments on a band [lo, hi) of 2-60 sites of a window, in
    coordinates from the window centre.  p sits on a run of sites, and
    (L + M) / 2 up to 1.5 sqrt(2 EXP_LIMIT / c) from the run's start, so
    that sites weighing above exp(EXP_LIMIT) occur both off the run and
    on it (a refusal)."""
    params, window = draw(_model_on_window())
    c, size = params.c, window.size
    ref = window.n_min + 0.5 * (size - 1)
    a_vec, b_vec = rate_arrays(params, ref, ref, window)
    n = window.sites() - ref
    lo = draw(st.integers(0, size - 2))
    hi = draw(st.integers(lo + 2, size))
    start, p = _draw_run(draw, hi - lo)
    reach = 1.5 * math.sqrt(2.0 * EXP_LIMIT / c)
    s = n[lo + start] + draw(st.floats(-reach, reach))
    d = draw(st.floats(-8.0, 8.0)) / c
    return (params, a_vec[lo:hi], b_vec[lo:hi], n[lo:hi], p, s + d, s - d,
            draw(st.floats(1e-6, 2.0)))


class TestMeasureStep:
    """The measure step calls LAPACK dstev directly and conjugates in one
    expression, with the sites weighing above exp(EXP_LIMIT) zeroed in and
    out of it; neither may move a bit."""

    @given(args=_measure_steps())
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_the_scipy_route(self, args):
        results = []
        for step in (_pflow_at_band_maxima, _scipy_pflow):
            try:
                results.append(step(*args))
            except RateOverflow as e:
                results.append(str(e))
        new, old = results
        if isinstance(old, str):
            assert new == old
        else:
            assert isinstance(new, np.ndarray) and np.array_equal(new, old)

    @given(args=_measure_steps(), rel_tol=st.floats(1e-12, 1e-4))
    @settings(max_examples=200, deadline=None)
    def test_extrapolated_step_bit_equal_to_the_reference(self, args, rel_tol):
        # each measure's rate sums formed once, the band maxima passed in
        # and the conjugation guard read from the band ends move no bit of
        # (p, L, M, err), nor which refusal is raised
        params, a_vec, b_vec = args[:3]
        config = IntegratorConfig(rel_tol=rel_tol)
        maxima = float(a_vec.max()), float(b_vec.max())
        results = []
        for step in (lambda: _extrapolated_step(*args, config, *maxima),
                     lambda: _reference_extrapolated_step(*args, config)):
            try:
                results.append(step())
            except RateOverflow as e:
                results.append(str(e))
        new, old = results
        if isinstance(old, str):
            assert new == old
        else:
            assert np.array_equal(new[0], old[0], equal_nan=True)
            assert new[1:3] == old[1:3]
            assert new[3] == old[3] or (math.isnan(new[3]) and math.isnan(old[3]))

    def test_patched_dstev_runs_after_the_first_eigensolve(self, monkeypatch):
        # scipy.linalg.lapack is bound on the first eigensolve, not its
        # dstev: a later patch of the routine is still the one that runs
        import scipy.linalg.lapack

        diag, off = np.array([-1.0, -2.0]), np.array([0.5])
        dynamics.eigh_tridiagonal(diag, off)

        def unconverged(d, e, compute_v=1):
            return d.copy(), np.eye(d.size), 1

        monkeypatch.setattr(scipy.linalg.lapack, "dstev", unconverged)
        with pytest.raises(NumericalError, match=r"dstev info=1"):
            dynamics.eigh_tridiagonal(diag, off)

    def test_sites_above_the_weight_limit_read_zero(self):
        # (L + M) / 2 = -50.2 at c = 0.535: the sites n >= 1 weigh above
        # exp(EXP_LIMIT) and hold no mass, but the conjugated step reaches
        # them (up to 9e16 at n = 1); they must read exactly 0 after it
        params = ModelParams(c=0.5348627120403312)
        a_vec, b_vec = rate_arrays(params, 0.0, 0.0, Window(-13, 27))
        n = np.arange(-13.0, 8.0)
        p = np.zeros(21)
        p[2] = 1.0
        args = (params, a_vec[:21], b_vec[:21], n, p,
                -37.158300425235865, -63.23012109637199, 1.5295797097075203)
        out = _pflow_at_band_maxima(*args)
        assert np.array_equal(out, _scipy_pflow(*args))
        assert np.all(out[n >= 1] == 0.0) and out[n < 1].sum() > 0.99

    def test_readme_run_counts(self, bench_params, bench_state0, monkeypatch):
        # bench/tracer.py counts eigensolves at dynamics.eigh_tridiagonal:
        # one per Strang step, three per extrapolated step
        calls = []
        solve = dynamics.eigh_tridiagonal

        def counted(diag, off):
            calls.append(diag.size)
            return solve(diag, off)

        monkeypatch.setattr(dynamics, "eigh_tridiagonal", counted)
        log = integrate(bench_params, bench_state0, 20.0, IntegratorConfig())
        assert (log.steps, log.rejected_steps) == (410, 0)
        assert len(calls) == 1230 and min(calls) >= 2


class TestSplittingWindowLimit:
    def test_rate_factor_overflow_at_start(self):
        # the splitting factors are the rates at the window centre, which
        # must stay within exp(EXP_LIMIT): here c * (n_max - n_min) / 2 =
        # 700.5, so no (L, M) passes the exponent rule
        w = Window(0, 1402)
        state0 = SystemState(p=LatticeMeasure.delta(700, w), L=700.0, M=700.0)
        with pytest.raises(RateOverflow, match="out of range on window"):
            integrate(
                ModelParams(), state0, 0.01,
                IntegratorConfig(dt_init=1e-3, n_samples=2),
            )

    def test_offset_window_integrates(self):
        # c * max|n| = 702 here, but the factors are taken at the centre 696
        w = Window(690, 13)
        state0 = SystemState(p=LatticeMeasure.delta(696, w), L=696.0, M=696.0)
        log = integrate(
            ModelParams(), state0, 0.5, IntegratorConfig(dt_init=1e-4, n_samples=6)
        )
        assert log.final().L == pytest.approx(695.935, abs=1e-3)

    def test_rates_below_the_float_range_are_zero(self):
        # beta(n) = |n| e^{cn} is below the float range on [-1290, -1276]
        # at c = 0.77, and so is every rate: p holds still while L and M
        # move at C_lambda and -C_mu
        params = ModelParams(c=0.77, beta=LinearDriftBeta(c=0.77))
        w = Window(-1290, 15)
        state0 = SystemState(p=LatticeMeasure.delta(-1283, w), L=-1282.7, M=-1283.4)
        log = integrate(params, state0, 1.0, IntegratorConfig(n_samples=5))
        assert np.array_equal(log.final().p.values, state0.p.values)
        assert log.final().L == pytest.approx(-1281.7, abs=1e-9)
        assert log.final().M == pytest.approx(-1284.4, abs=1e-9)
        assert max(abs(s.K - log.samples[0].K) for s in log.samples) == 0.0

    def test_shift_invariance(self):
        # with constant beta the system commutes with a shift of the
        # lattice and of L, M: [-10, 10] and [710, 730] take the same steps
        params = ModelParams()
        config = IntegratorConfig(n_samples=11)
        a = integrate(
            params,
            SystemState(p=LatticeMeasure.delta(0, Window(-10, 21)), L=1.3, M=-0.4),
            5.0, config,
        )
        b = integrate(
            params,
            SystemState(
                p=LatticeMeasure.delta(720, Window(710, 21)), L=721.3, M=719.6
            ),
            5.0, config,
        )
        assert (a.steps, a.rejected_steps) == (b.steps, b.rejected_steps)
        for x, y in zip(a.samples, b.samples, strict=True):
            assert abs(x.state.L - (y.state.L - 720.0)) <= 1e-9
            assert abs(x.state.M - (y.state.M - 720.0)) <= 1e-9
            assert 0.5 * np.abs(x.state.p.values - y.state.p.values).sum() <= 1e-10


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
                IntegratorConfig(dt_init=h, rel_tol=1.0, n_samples=2),
            )
            assert (one.steps, one.rejected_steps) == (1, 0)
            ref = integrate(
                bench_params, bench_state0, h,
                IntegratorConfig(dt_init=h, rel_tol=1e-13, n_samples=2),
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
        w = bench_state0.window
        ref = 0.5 * (w.n_min + w.n_max)
        a_vec, b_vec = rate_arrays(bench_params, ref, ref, w)
        config = IntegratorConfig()
        ts = list(np.linspace(0.0, 20.0, 21))
        counts = []
        for extra in ([], [10.0 + 1e-9]):
            edges = sorted(ts + extra)
            p, L, M = bench_state0.p.values, bench_state0.L - ref, bench_state0.M - ref
            h, steps = config.dt_init, 0
            for span in zip(edges[:-1], edges[1:]):
                p, L, M, h, accepted, _ = _splitting_advance(
                    bench_params, a_vec, b_vec, w.sites() - ref, p, L, M, span, h, config
                )
                steps += accepted
            counts.append(steps)
        assert counts[1] <= counts[0] + 2

    def test_unreachable_tolerance_raises(self, bench_params, bench_state0):
        with pytest.raises(StepSizeUnderflow):
            integrate(
                bench_params, bench_state0, 1.0,
                IntegratorConfig(rel_tol=1e-300),
            )


@st.composite
def _splitting_cases(draw):
    c = draw(st.floats(0.4, 1.6))
    size = draw(st.integers(3, 41))  # c * (size - 1) / 2 <= 600 on the window
    n_min = draw(st.one_of(st.integers(-size + 1, 0), st.integers(-10**4, 10**4)))
    window = Window(n_min, size)
    centre = n_min + 0.5 * (size - 1)
    C_lambda = draw(st.floats(0.5, 2.0))
    C_mu = draw(st.one_of(st.just(C_lambda), st.floats(0.5, 2.0)))
    beta = draw(st.sampled_from(PROFILES))
    if isinstance(beta, LinearDriftBeta):
        beta = LinearDriftBeta(slope=beta.slope, c=c)  # must match the model's c
    params = ModelParams(c=c, C_lambda=C_lambda, C_mu=C_mu, beta=beta)
    state0 = SystemState(
        p=LatticeMeasure.delta(draw(st.integers(n_min, n_min + size - 1)), window),
        L=centre + draw(st.floats(-2.0, 2.0)),
        M=centre + draw(st.floats(-2.0, 2.0)),
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
