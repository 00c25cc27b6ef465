import numpy as np
import pytest

import nlwalk.kernel
from nlwalk import (
    IntegratorConfig,
    LatticeMeasure,
    ModelParams,
    SystemState,
    Window,
    annotate,
    integrate,
)

# Benchmark setting shared across suites: beta = 1, c = 1, C_lambda = C_mu = 1,
# window [-25, 25], p(0) = delta_0, L0 = 1.3, M0 = -0.4, alpha = 0.
BENCH_L0 = 1.3
BENCH_M0 = -0.4


@pytest.fixture(scope="session")
def bench_params():
    return ModelParams()


@pytest.fixture(scope="session")
def bench_window():
    return Window.symmetric(25)


@pytest.fixture(scope="session")
def bench_state0(bench_window):
    return SystemState(
        p=LatticeMeasure.delta(0, bench_window), L=BENCH_L0, M=BENCH_M0
    )


@pytest.fixture(scope="session")
def bench_log_T20(bench_params, bench_state0):
    """T=20 benchmark trajectory at the default tolerances (the splitting
    method's steps adapt; dt_init is only its first trial step), with the
    Lyapunov columns filled; shared by the conservation, Lyapunov, kernel,
    particle and operator-bound acceptance checks."""
    log = integrate(
        bench_params,
        bench_state0,
        20.0,
        IntegratorConfig(dt_init=2.5e-4, n_samples=201),
    )
    return annotate(log)


@pytest.fixture
def count_exponentials(monkeypatch):
    """A list that gets one entry, its tau, per substep exponential built."""
    built, transition_matrix = [], nlwalk.kernel._transition_matrix

    def spy(gen, tau):
        built.append(tau)
        return transition_matrix(gen, tau)

    monkeypatch.setattr(nlwalk.kernel, "_transition_matrix", spy)
    return built


# One visible pass/fail line per acceptance criterion in the terminal
# summary (unit-test output stays standard pytest).
_CRITERIA = {}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.module.__name__ == "test_acceptance" and "criterion" in item.name:
            _CRITERIA[item.nodeid] = None


def pytest_runtest_logreport(report):
    if report.when == "call" and report.nodeid in _CRITERIA:
        _CRITERIA[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_CRITERIA):
        name = nodeid.split("::")[-1]
        outcome = _CRITERIA[nodeid]
        verdict = {"passed": "PASS", "failed": "FAIL"}.get(outcome, "SKIPPED")
        terminalreporter.write_line(f"{verdict}  {name}")


def rng(seed):
    return np.random.default_rng(seed)
