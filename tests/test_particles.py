import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwalk import (
    ConstantBeta,
    Ensemble,
    LatticeMeasure,
    LinearDriftBeta,
    ModelParams,
    TableBeta,
    Window,
    run_particles,
)
from nlwalk.errors import RateOverflow, StepTooLarge
from nlwalk.model import check_rate_exponents, rate_arrays
from nlwalk.particles import RATE_DT_LIMIT, _binomial, _site_moves

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


class BandStepReference:
    """Reference: the band step on numpy arrays, with the band found by
    np.flatnonzero each step, the guard taken over the whole band before
    any site draws, and the new counts added up with array slices.  Its
    walker sums run in site order (np.cumsum), the order of the scalar
    step; `n @ probs` goes through BLAS, whose fused and blocked sums can
    differ in the last bit.  Each occupied site draws its moves through
    the private site sampler, at its pair of the step's uniform block."""

    def __init__(self, params, window, counts, L, M):
        self.params, self.window = params, window
        self.counts = np.array(counts, dtype=np.int64)
        self.L, self.M, self.t, self.max_rate_dt = L, M, 0.0, 0.0
        self.n = int(self.counts.sum())
        self.ref = (window.n_min + window.n_max) / 2
        self.lam0, self.mu0 = rate_arrays(params, self.ref, self.ref, window)

    def step(self, dt, rng):
        params = self.params
        check_rate_exponents(params, self.L, self.M, self.window)
        occ = np.flatnonzero(self.counts)
        lo, hi = int(occ[0]), int(occ[-1]) + 1
        n = self.counts[lo:hi]
        uniforms = rng.random((hi - lo, 2))
        probs = np.empty((hi - lo, 3))
        probs[:, 0] = self.lam0[lo:hi] * (math.exp(params.c * (self.L - self.ref)) * dt)
        probs[:, 1] = self.mu0[lo:hi] * (math.exp(params.c * (self.ref - self.M)) * dt)
        probs[:, 2] = probs[:, 0] + probs[:, 1]
        probs[n == 0] = 0.0
        max_rate_dt = float(probs[:, 2].max())
        if max_rate_dt > RATE_DT_LIMIT:
            raise StepTooLarge(f"max rate * dt = {max_rate_dt:g}")
        self.max_rate_dt = max(self.max_rate_dt, max_rate_dt)
        up_dt, down_dt, _ = np.cumsum(n[:, None] * probs, axis=0)[-1].tolist()
        self.L += dt * params.C_lambda - up_dt / self.n
        self.M += down_dt / self.n - dt * params.C_mu
        moves = np.zeros((hi - lo, 2), dtype=np.int64)
        for i in np.flatnonzero(n):
            up, down = probs[i, :2].tolist()
            moves[i] = _site_moves(int(n[i]), up, down, *uniforms[i].tolist(), rng)
        self.counts[lo:hi] -= moves.sum(axis=1)
        right = min(hi + 1, self.counts.size)
        self.counts[lo + 1 : right] += moves[: right - lo - 1, 0]
        left = max(lo - 1, 0)
        self.counts[left : hi - 1] += moves[left - lo + 1 :, 1]
        self.t += dt


@st.composite
def stepping_cases(draw):
    """(params, window, counts, centre): a window [centre - m, centre + m]
    with constant or tabulated beta.  The "spike" table puts a huge
    beta(n) on an empty site n inside the occupied band, so lambda_n and
    mu_{n+1} spike on two empty sites between occupied ones."""
    m = draw(st.integers(1, 6))
    centre = draw(st.sampled_from((0, 720)))
    w = Window(centre - m, 2 * m + 1)
    counts = draw(st.lists(st.integers(0, 40), min_size=w.size, max_size=w.size))
    # a spike needs two empty sites between occupied ones: m >= 2
    kinds = ("constant", "table", "spike") if m >= 2 else ("constant", "table")
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        beta = ConstantBeta(draw(st.floats(0.2, 5.0)))
    else:
        # beta on [n_min - 1, n_max]: values[j + 1] is beta at window index j
        values = draw(
            st.lists(st.floats(0.05, 20.0), min_size=w.size + 1, max_size=w.size + 1)
        )
        if kind == "spike":
            j = draw(st.integers(1, w.size - 3))
            counts[j] = counts[j + 1] = 0
            counts[j - 1] = max(counts[j - 1], 1)
            counts[j + 2] = max(counts[j + 2], 1)
            values[j + 1] = draw(st.floats(1e3, 1e250))
        beta = TableBeta(tuple(values), n_min=w.n_min - 1)
    if sum(counts) == 0:
        counts[draw(st.integers(0, w.size - 1))] = 1
    return ModelParams(beta=beta), w, np.array(counts), centre


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

    @pytest.mark.parametrize("params, L, M, error, message", [
        pytest.param(PARAMS, -10.0, -3.0, StepTooLarge, "at site [1-9]",
                     id="-10.0--3.0-StepTooLarge"),
        pytest.param(PARAMS, 695.0, 0.0, RateOverflow, "rate exponent out of range",
                     id="695.0-0.0-RateOverflow"),
        # beta(-4) = 1e3 sends walkers from -3 to -4, where
        # mu = beta(-5) e^{c(-4 - M)} is past the float range at M = -12
        pytest.param(
            ModelParams(beta=TableBeta((1.7e308, 1e3), n_min=-5, left=1.0, right=1.0)),
            0.0, -12.0, RateOverflow, "overflowed at site -4",
            id="0.0--12.0-RateOverflow-infinite-rate",
        ),
    ])
    def test_refused_step_leaves_the_ensemble_as_it_was(self, params, L, M, error, message):
        # the walkers spread over [-4, 4] first; at (L, M) = (-10, -3) the
        # rates grow to the right, so the guard trips at a right-hand site
        # after the sites left of it have drawn
        w = Window.symmetric(10)
        start = np.zeros(w.size, dtype=int)
        start[w.index(-3) : w.index(4)] = 500
        ens = Ensemble(params, w, start, 0.0, 0.0)
        ens.step(1e-3, np.random.default_rng(0))
        ens.L, ens.M = L, M
        before = (ens.counts.copy(), ens.L, ens.M, ens.t, ens.max_rate_dt,
                  ens.band_max, ens.jumps, ens._lo, ens._hi)
        with pytest.raises(error, match=message):
            ens.step(1e-3, np.random.default_rng(1))
        after = (ens.counts, ens.L, ens.M, ens.t, ens.max_rate_dt,
                 ens.band_max, ens.jumps, ens._lo, ens._hi)
        assert np.array_equal(before[0], after[0]) and before[1:] == after[1:]

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

    @settings(max_examples=300, deadline=None)
    @given(
        case=stepping_cases(),
        dL=st.floats(-3.0, 3.0),
        dM=st.floats(-3.0, 3.0),
        log_dt=st.floats(-5.0, -0.5),
    )
    def test_barriers_and_guard_match_per_walker(self, case, dL, dM, log_dt):
        params, w, counts, centre = case
        L, M = centre + dL, centre + dM
        dt = 10.0 ** log_dt
        positions = np.repeat(w.sites(), counts)
        try:
            _, L_ref, M_ref = per_walker_step(
                params, w, positions, L, M, dt, np.random.default_rng(0)
            )
        except StepTooLarge:
            L_ref = None
        ens = Ensemble(params, w, counts, L, M)
        if L_ref is None:
            with pytest.raises(StepTooLarge):
                ens.step(dt, np.random.default_rng(0))
            assert np.array_equal(ens.counts, counts)
            assert (ens.L, ens.M, ens.t, ens.jumps) == (L, M, 0.0, 0)
            return
        ens.step(dt, np.random.default_rng(0))
        assert math.isclose(ens.L, L_ref, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(ens.M, M_ref, rel_tol=1e-12, abs_tol=1e-15)
        # the edge sites are drawn occupied too: no walker leaves the window
        assert sum(ens.counts) == counts.sum() and min(ens.counts) >= 0
        assert 0.0 < ens.max_rate_dt <= RATE_DT_LIMIT

    @settings(max_examples=300, deadline=None)
    @given(
        case=stepping_cases(),
        dL=st.floats(-3.0, 3.0),
        dM=st.floats(-3.0, 3.0),
        log_dt=st.floats(-5.0, -0.5),
        n_steps=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_steps_match_band_reference_bitwise(self, case, dL, dM, log_dt, n_steps, seed):
        params, w, counts, centre = case
        L, M = centre + dL, centre + dM
        dt = 10.0 ** log_dt
        ens = Ensemble(params, w, counts, L, M)
        ref = BandStepReference(params, w, counts, L, M)
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(n_steps):
            errors = []
            for stepper, gen in ((ens, rng), (ref, rng_ref)):
                try:
                    stepper.step(dt, gen)
                    errors.append(None)
                except (StepTooLarge, RateOverflow, ValueError) as e:
                    errors.append(type(e))
            assert errors[0] == errors[1]
            if errors[0] is not None:
                return
            assert np.array_equal(ens.counts, ref.counts)
            assert (ens.L, ens.M, ens.t) == (ref.L, ref.M, ref.t)
            assert ens.max_rate_dt == ref.max_rate_dt
            occ = np.flatnonzero(ens.counts)
            assert (ens._lo, ens._hi) == (occ[0], occ[-1] + 1)
            assert ens.band_max <= w.size

    @pytest.mark.parametrize("seed", range(3))
    def test_large_sites_match_band_reference_bitwise(self, seed):
        # k * p runs from below 1 to about 60 over the band, so sites draw
        # by inversion and by rng.binomial in one step, as in
        # README's first steps
        w = Window.symmetric(12)
        counts = np.zeros(w.size, dtype=np.int64)
        counts[w.index(-2) : w.index(3)] = (300, 4000, 30_000, 4000, 300)
        ens = Ensemble(PARAMS, w, counts, 1.3, -0.4)
        ref = BandStepReference(PARAMS, w, counts, 1.3, -0.4)
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(10):
            ens.step(1e-3, rng)
            ref.step(1e-3, rng_ref)
            assert np.array_equal(ens.counts, ref.counts)
            assert (ens.L, ens.M, ens.t) == (ref.L, ref.M, ref.t)
            assert ens.max_rate_dt == ref.max_rate_dt

    def test_jumps_are_the_arrivals(self):
        # sites 3 apart: after one step every walker on a site next to a
        # start site has arrived by one move
        w = Window.symmetric(10)
        start = np.zeros(w.size, dtype=int)
        sites = (-3, 0, 3)
        for n, k in zip(sites, (2000, 5000, 2000)):
            start[w.index(n)] = k
        for seed in range(5):
            ens = Ensemble(PARAMS, w, start, -0.8, 0.8)
            ens.step(0.01, np.random.default_rng(seed))
            arrivals = sum(int(ens.counts[w.index(n + d)]) for n in sites for d in (-1, 1))
            assert ens.jumps == arrivals > 0

    @pytest.mark.parametrize(
        "L, M",
        [
            (695.0, 0.0),  # -c(n_min - L) = 705
            (0.0, -695.0),  # c(n_max - M) = 705
            (math.nextafter(690.0, math.inf), 0.0),
            (0.0, math.nextafter(-690.0, -math.inf)),
        ],
    )
    def test_rate_overflow_as_rate_arrays(self, L, M):
        w = Window.symmetric(10)
        with pytest.raises(RateOverflow):
            rate_arrays(PARAMS, L, M, w)
        ens = Ensemble.from_measure(
            PARAMS, LatticeMeasure.delta(0, w), L, M, 100, np.random.default_rng(0)
        )
        with pytest.raises(RateOverflow):
            ens.step(1e-3, np.random.default_rng(0))

    def test_window_no_step_can_pass_is_refused_at_build(self):
        # c (n_max - n_min) / 2 = 700.5 > EXP_LIMIT: no (L, M) passes the
        # exponent rule, so even a zero-length run raises
        w = Window(0, 1402)
        with pytest.raises(RateOverflow):
            run_particles(PARAMS, LatticeMeasure.delta(700, w), 700.0, 700.0,
                          10, 0.0, 1e-3, seed=0)

    def test_step_count_past_the_float_range_is_refused(self):
        # t_final / dt = 1e311 is inf: a ValueError, not an OverflowError
        with pytest.raises(ValueError, match="overflows the step count"):
            run_particles(PARAMS, LatticeMeasure.delta(0, Window.symmetric(5)),
                          0.0, 0.0, 10, 1e308, 1e-3, seed=0)

    @pytest.mark.parametrize("L, M", [(685.0, -685.0), (690.0, 0.0), (0.0, -690.0)])
    def test_exponents_in_range_reach_the_guard(self, L, M):
        # inside rate_arrays' rule the huge rates trip StepTooLarge, never
        # RateOverflow or a raw OverflowError
        w = Window.symmetric(10)
        rate_arrays(PARAMS, L, M, w)
        ens = Ensemble.from_measure(
            PARAMS, LatticeMeasure.delta(0, w), L, M, 100, np.random.default_rng(0)
        )
        with pytest.raises(StepTooLarge):
            ens.step(1e-3, np.random.default_rng(0))

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


def trinomial_pmf(k, up, down):
    """{(a, b): P(up-moves = a, down-moves = b)} of the (up, down, stay)
    multinomial of k walkers, summed in logs."""
    stay = 1.0 - up - down
    pmf = {}
    for a in range(k + 1 if up else 1):
        for b in range(k - a + 1 if down else 1):
            log_p = (math.lgamma(k + 1) - math.lgamma(a + 1) - math.lgamma(b + 1)
                     - math.lgamma(k - a - b + 1) + (a * math.log(up) if a else 0.0)
                     + (b * math.log(down) if b else 0.0) + (k - a - b) * math.log(stay))
            pmf[a, b] = math.exp(log_p)
    return pmf


class TestSiteSampler:
    """_site_moves against the exact (up, down, stay) law: a chi-square
    test over 10^5 draws at a fixed seed, on cells of expected count >= 5
    and one cell pooling the rest.  Bounds, fixed before the sampler was
    written: p-value >= 1e-4 on every case, and up + down <= k always."""

    DRAWS = 100_000

    @pytest.mark.parametrize("k, up, down", [
        (1, 0.04, 0.05),  # one walker
        (400, 0.0745, 0.0255),  # k * up = 29.8: both binomials invert
        (400, 0.0755, 0.0245),  # k * up = 30.2: up from rng.binomial
        (400, 0.02, 0.08),  # (k - up) * down / (1 - up): about 32, rng.binomial
        (30, 0.06, 0.04),  # (up + down) at the guard, 0.1
        (20, 0.0, 0.1),  # right edge: lambda = 0
        (20, 0.1, 0.0),  # left edge: mu = 0
    ])
    def test_law_is_the_trinomial(self, k, up, down):
        from scipy.stats import chi2

        rng = np.random.Generator(np.random.Philox(k))
        uniforms = rng.random((self.DRAWS, 2)).tolist()
        draws = [_site_moves(k, up, down, u, v, rng) for u, v in uniforms]
        assert all(a >= 0 and b >= 0 and a + b <= k for a, b in draws)
        observed = {}
        for pair in draws:
            observed[pair] = observed.get(pair, 0) + 1
        assert set(observed) <= set(trinomial_pmf(k, up, down))
        cells, rest_obs, rest_exp = [], 0, 0.0
        for pair, q in trinomial_pmf(k, up, down).items():
            if q * self.DRAWS >= 5:
                cells.append((observed.get(pair, 0), q * self.DRAWS))
            else:
                rest_obs += observed.get(pair, 0)
                rest_exp += q * self.DRAWS
        if rest_exp > 0:
            cells.append((rest_obs, rest_exp))
        stat = sum((o - e) ** 2 / e for o, e in cells)
        assert chi2.sf(stat, len(cells) - 1) >= 1e-4

    def test_rounding_gap_starts_over_at_a_fresh_uniform(self):
        # the pmf of Bin(10, 0.1), subtracted term by term, leaves more than
        # the largest uniform below 1: past x = k the draw starts over at
        # the generator's next uniform
        u = math.nextafter(1.0, 0.0)
        rng, twin = np.random.default_rng(0), np.random.default_rng(0)
        assert _binomial(10, 0.1, u, rng) == _binomial(10, 0.1, twin.random(), twin)
        assert rng.random() == twin.random()


# README config (beta = 1, c = 1, [-25, 25], delta_0, L0 = 1.3, M0 = -0.4),
# N = 10^4, dt = 5e-4, T = 1: sha256 over every sample's float64
# histogram, and the final (L, M, K_N), as the per-site binomial pairs drew
# them.  Pinned when they replaced the multinomial call, which drew
# another stream of the same law; any further change of stream shows here.
STREAM_PINS = {
    1: (
        "b55a65ec2a67937489d9728f73101ee041e43c21148f4c96451eda3b639cc08e",
        0.3422015851690324, 0.25491764493302377, 0.8887192301020561,
    ),
    2: (
        "26ee37459c13724718ccb35b57dfc4207dd136127a378a547ad3634ad9ae4a4d",
        0.35516707833987476, 0.26800738127162366, 0.9302744596114985,
    ),
    3: (
        "7ba503f98f07a0a48e2e436002c3822b68ce9f7b0fc541498d3966aaa30cf8c3",
        0.3554211647546991, 0.26580175282815044, 0.9318229175828495,
    ),
}


@st.composite
def particle_runs(draw):
    c = draw(st.floats(0.5, 2.0))
    m = draw(st.integers(1, 8))
    w = Window.symmetric(m)
    kind = draw(st.sampled_from(("constant", "table", "linear_drift")))
    if kind == "constant":
        beta = ConstantBeta(draw(st.floats(0.1, 10.0)))
    elif kind == "table":
        values = draw(st.lists(st.floats(0.05, 20.0), min_size=1, max_size=w.size + 2))
        beta = TableBeta(tuple(values), n_min=draw(st.integers(-m - 1, m)))
    else:
        beta = LinearDriftBeta(slope=draw(st.floats(0.1, 5.0)), c=c)
    params = ModelParams(
        c=c, C_lambda=draw(st.floats(0.5, 2.0)), C_mu=draw(st.floats(0.5, 2.0)), beta=beta
    )
    if draw(st.booleans()):
        p0 = LatticeMeasure.delta(draw(st.integers(-m, m)), w)
    else:
        p0 = LatticeMeasure(w, np.full(w.size, 1.0 / w.size))
    return dict(
        params=params,
        p0=p0,
        L0=draw(st.floats(-5.0, 5.0)),
        M0=draw(st.floats(-5.0, 5.0)),
        n_particles=draw(st.integers(1, 200)),
        t_final=draw(st.floats(0.0, 0.2)),
        dt=draw(st.floats(1e-4, 0.2)),
        seed=draw(st.integers(0, 2**32 - 1)),
        n_samples=draw(st.integers(2, 12)),
    )


class TestRun:
    @settings(max_examples=100, deadline=None)
    @given(run=particle_runs())
    def test_sweep_invariants_or_documented_error(self, run):
        try:
            log = run_particles(**run)
        except (StepTooLarge, RateOverflow, ValueError):
            return
        n = run["n_particles"]
        assert len(log.samples) == run["n_samples"]
        for s in log.samples:
            counts = np.rint(s.histogram * n)
            assert np.allclose(s.histogram * n, counts, rtol=0.0, atol=1e-9)
            assert (counts >= 0).all() and counts.sum() == n
            assert math.isfinite(s.L) and math.isfinite(s.M)
        assert 0.0 <= log.max_rate_dt <= RATE_DT_LIMIT
        assert log.steps == math.ceil(run["t_final"] / run["dt"] - 1e-12)
        # every step of a run draws, the first one too
        assert (log.band_max >= 1) == (log.steps >= 1)
        assert log.jumps >= 0 and (log.steps or not log.jumps)
        assert log.band_max <= run["p0"].window.size

    def test_stream_pinned(self):
        p0 = LatticeMeasure.delta(0, Window.symmetric(25))
        for seed, (digest, L, M, K_N) in STREAM_PINS.items():
            log = run_particles(PARAMS, p0, 1.3, -0.4, 10_000, 1.0, 5e-4, seed=seed)
            h = hashlib.sha256()
            for s in log.samples:
                h.update(np.ascontiguousarray(s.histogram, dtype="<f8").tobytes())
            assert h.hexdigest() == digest
            fin = log.final()
            assert abs(fin.L - L) < 1e-12 and abs(fin.M - M) < 1e-12
            assert abs(fin.K_N - K_N) < 1e-12

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
