"""Acceptance suite: one test per criterion, at the stated tolerances.

Benchmark setting: beta = 1, c = 1, C_lambda = C_mu = 1, window [-25, 25],
p(0) = delta_0, L0 = 1.3, M0 = -0.4, alpha = 0.  Each test enforces its
stated runtime budget; the shared T=20 trajectory fixture is charged to
the conservation criterion, which builds it.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from nlwalk import (
    FrozenPath,
    IntegratorConfig,
    K_of_s,
    LatticeMeasure,
    ModelParams,
    SystemState,
    TableBeta,
    Window,
    detailed_balance_residual,
    dyson_series,
    fixed_point,
    generator_at,
    integrate,
    kernel_weighted_distance,
    monitor,
    propagate,
    rhs,
    run_particles,
    sample_paths,
    solve_s_from_K,
    total_variation,
    v_induced_norm,
    v_norm_bound,
)


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeds budget {seconds}s"


@pytest.fixture(scope="module")
def bench_log_T50(bench_params, bench_state0):
    return integrate(
        bench_params,
        bench_state0,
        50.0,
        IntegratorConfig(dt_init=1e-3, n_samples=201),
    )


def test_criterion_01_detailed_balance(bench_window):
    with budget(1.0):
        profiles = [
            ModelParams(),
            ModelParams(beta=TableBeta(values=(2.0, 3.0, 4.0), n_min=-1)),
        ]
        for params in profiles:
            for s in (-0.3, 0.0, 1.7):
                fp = fixed_point(params, s, bench_window)
                assert detailed_balance_residual(params, fp) < 1e-12


def test_criterion_02_fixed_point_residual(bench_params, bench_window):
    with budget(1.0):
        for s in (0.0, 0.7):
            fp = fixed_point(bench_params, s, bench_window)
            state = SystemState(p=fp.pi, L=fp.L_s, M=fp.M_s)
            dp, dL, dM = rhs(bench_params, state)
            assert np.abs(dp).sum() + abs(dL) + abs(dM) < 1e-10


def test_criterion_03_K_conservation(bench_params, bench_state0, bench_log_T20):
    with budget(30.0):
        K0 = bench_log_T20.samples[0].K
        drift = max(abs(s.K - K0) for s in bench_log_T20.samples)
        assert drift < 1e-7
        # refinement check: tightening the tolerance 100-fold must reduce
        # the drift at least 2-fold
        drifts = []
        for rel_tol in (1e-8, 1e-10):
            log = integrate(
                bench_params,
                bench_state0,
                2.0,
                IntegratorConfig(dt_init=1e-3, rel_tol=rel_tol, n_samples=11),
            )
            k0 = log.samples[0].K
            drifts.append(max(abs(s.K - k0) for s in log.samples))
        assert drifts[0] / drifts[1] >= 2.0


def test_criterion_04_convergence(bench_params, bench_window, bench_log_T50):
    with budget(60.0):
        K0 = bench_log_T50.samples[0].K
        s_star = solve_s_from_K(bench_params, K0)
        pi_star = fixed_point(bench_params, s_star, bench_window).pi
        assert total_variation(bench_log_T50.final().p, pi_star) < 1e-3
        assert abs(bench_log_T50.final().s - s_star) < 1e-4
        tvs = [total_variation(s.state.p, pi_star) for s in bench_log_T50.samples]
        tail = tvs[len(tvs) // 5 :]  # last 80% of samples
        assert all(b <= a + 1e-12 for a, b in zip(tail[:-1], tail[1:]))


def test_criterion_05_lyapunov_monotonicity(bench_log_T20):
    with budget(5.0):
        report = monitor(bench_log_T20)
        assert report.violations == 0
        assert report.q_bounded
        assert report.q_max <= report.q_bound + 1e-9
        assert report.mean_offset_max <= report.mean_offset_bound + 1e-9


def test_criterion_06_kernel_properties(bench_params, bench_log_T20):
    with budget(30.0):
        w = Window.symmetric(8)
        path = FrozenPath.from_log(bench_log_T20)
        substeps = 50
        P = propagate(bench_params, path, 0.0, 1.0, w, substeps=substeps)
        assert P.max_row_sum_error() < 1e-10
        # Chapman-Kolmogorov at three random split points on the substep
        # grid (the product over aligned substep factors must reassociate)
        r = np.random.default_rng(0)
        for k in r.choice(np.arange(5, substeps - 5), size=3, replace=False):
            tm = k / substeps
            A = propagate(bench_params, path, 0.0, tm, w, substeps=int(k))
            B = propagate(bench_params, path, tm, 1.0, w, substeps=substeps - int(k))
            assert np.abs(A.rows @ B.rows - P.rows).max() < 1e-8
        # jump-count series vs the propagator on a constant path
        const = FrozenPath.constant(1.3, -0.4)
        ref = propagate(bench_params, const, 0.0, 0.1, w, substeps=10)
        for approx, bound in dyson_series(bench_params, 1.3, -0.4, 0.0, 0.1, w, (2, 4, 6)):
            assert kernel_weighted_distance(approx, ref, 0.0) < bound


def test_criterion_07_path_sampler(bench_params, bench_state0):
    with budget(60.0):
        log = integrate(
            bench_params,
            bench_state0,
            1.0,
            IntegratorConfig(dt_init=1e-3, n_samples=21),
        )
        path = FrozenPath.from_log(log)
        w = bench_state0.window
        n_paths = 20_000
        times = [0.0, 0.5, 1.0]
        walks = sample_paths(bench_params, path, bench_state0.p, times, n_paths, seed=2024)

        counts = np.bincount(walks[:, 2] - w.n_min, minlength=w.size)
        empirical = LatticeMeasure.normalized(w, counts.astype(float))
        assert total_variation(empirical, log.final().p) < 0.02

        # two-point check against p_{n1}(0.5) P(n2, 1 | n1, 0.5)
        p_half = next(s.state.p for s in log.samples if abs(s.t - 0.5) < 1e-12)
        wk = Window.symmetric(10)
        P = propagate(bench_params, path, 0.5, 1.0, wk, substeps=80)
        joint_model = {}
        for n1 in wk.sites():
            for n2 in wk.sites():
                joint_model[(int(n1), int(n2))] = (
                    p_half[int(n1)] * P.rows[wk.index(int(n1)), wk.index(int(n2))]
                )
        top = sorted(joint_model, key=joint_model.get, reverse=True)[:10]
        for pair in top:
            q = joint_model[pair]
            freq = np.mean((walks[:, 1] == pair[0]) & (walks[:, 2] == pair[1]))
            se = math.sqrt(q * (1 - q) / n_paths)
            assert abs(freq - q) <= 4 * se, f"pair {pair}: {freq} vs {q}"


def test_criterion_08_mean_field_particles(bench_params, bench_state0, bench_log_T20):
    with budget(120.0):
        ref = next(s for s in bench_log_T20.samples if abs(s.t - 5.0) < 1e-9)
        L_ref, p_ref = ref.state.L, ref.state.p

        L_errs, tv_errs = [], []
        for seed in range(5):
            plog = run_particles(
                bench_params, bench_state0.p, bench_state0.L, bench_state0.M,
                10_000, 5.0, 1e-3, seed=seed,
            )
            L_errs.append(abs(plog.final().L - L_ref))
            tv_errs.append(total_variation(plog.empirical_measure(), p_ref))
        assert np.median(L_errs) < 0.05
        assert np.median(tv_errs) < 0.05

        # 1/sqrt(N) scaling: quadrupling N should roughly halve the error.
        # Mean TV over many seeds at a short horizon, where the statistical
        # error dominates the time-discretization bias by a wide margin.
        ref2 = next(s for s in bench_log_T20.samples if abs(s.t - 2.0) < 1e-9)
        tv_by_N = {}
        for N in (500, 2000):
            errs = [
                total_variation(
                    run_particles(
                        bench_params, bench_state0.p, bench_state0.L,
                        bench_state0.M, N, 2.0, 1e-3, seed=100 + seed,
                    ).empirical_measure(),
                    ref2.state.p,
                )
                for seed in range(60)
            ]
            tv_by_N[N] = float(np.mean(errs))
        ratio = tv_by_N[500] / tv_by_N[2000]
        assert 1.5 <= ratio <= 2.7, f"scaling ratio {ratio}"


def test_criterion_09_operator_bound(bench_params, bench_window, bench_log_T20):
    with budget(1.0):
        path = FrozenPath.from_log(bench_log_T20)
        r = np.random.default_rng(7)
        sup_beta = 1.0
        for t in r.uniform(0.0, 20.0, size=20):
            gen = generator_at(bench_params, path, float(t), bench_window)
            measured = v_induced_norm(gen, alpha=0.0)
            L_t, M_t = path.at(float(t))
            bound = v_norm_bound(bench_params, sup_beta, L_t, M_t, alpha=0.0)
            # the bound is exactly attained for beta = 1; allow roundoff
            assert measured <= bound * (1 + 1e-9)


def test_criterion_10_equilibrium_structure(bench_params):
    with budget(1.0):
        grid = np.linspace(-2.0, 2.0, 41)
        F = [K_of_s(bench_params, float(s)) for s in grid]
        for s, f in zip(grid, F):
            assert abs(K_of_s(bench_params, float(s) + 1.0) - f - 3.0) < 1e-12
        assert all(b > a for a, b in zip(F[:-1], F[1:]))
        for s0 in (-2.0, -0.7, 0.0, 0.4, 1.9):
            back = solve_s_from_K(bench_params, K_of_s(bench_params, s0))
            assert abs(back - s0) < 1e-9
