"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import nlwalk.cli  # noqa: E402
import nlwalk.dynamics  # noqa: E402
import nlwalk.particles  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_declared_names_are_valid():
    names = [w["name"] for w in BENCHMARK["workloads"]] + sorted(END_TO_END | PER_LAYER)
    assert all(NAME.fullmatch(n) for n in names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload):
    result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(NAME.fullmatch(k) for k in result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = _run("kernel", trace=1)
    assert result["correct"] and result["attempted"] >= 2
    assert set(result["metrics"]) == PER_LAYER
    assert all(NAME.fullmatch(k) for k in result["metrics"])
    for probe in workloads.PROBES:
        assert isinstance(result["metrics"][probe]["value"], int)


def test_tracer_restores_the_library(tmp_path):
    step = nlwalk.particles.Ensemble.__dict__["step"]
    op = run.run_op(0, workloads.WORKLOADS["kernel"], 1, None, tmp_path, traced=True)
    assert not op["failures"]
    assert nlwalk.cli.integrate is nlwalk.dynamics.integrate
    assert nlwalk.particles.Ensemble.__dict__["step"] is step
    assert op["layers"]["kernel.propagate.calls"] > 0
    assert op["layers"]["cli.self_s"] >= 0.0
    span_ids = {s["id"] for s in op["spans"] if "id" in s}
    assert all(s["parent"] == 0 or s["parent"] in span_ids for s in op["spans"] if "id" in s)


def _fake_simulate(summary):
    """A stand-in for the CLI that writes relax artifacts with the given
    summary.json (None: writes nothing) and exits 0."""

    def main(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        if summary is not None:
            (out / "summary.json").write_text(json.dumps(summary))
            (out / "trajectory.csv").write_text("t,mass\n0.0,1.0\n20.0,1.0\n")
            (out / "final_measure.csv").write_text("n,value\n-1,0.25\n0,0.5\n1,0.25\n")
        return 0

    return main


GOOD_SUMMARY = {"K_drift_max": 7.2e-7, "tv_final": 1.4e-7, "W_violations": 0}


@pytest.mark.parametrize("summary, failed", [
    (GOOD_SUMMARY, False),
    ({**GOOD_SUMMARY, "W_violations": 1}, True),
    ({**GOOD_SUMMARY, "K_drift_max": 1e-3}, True),
    (None, True),
])
def test_corrupted_artifact_fails_the_operation(tmp_path, monkeypatch, summary, failed):
    monkeypatch.setattr(nlwalk.cli, "main", _fake_simulate(summary))
    op = run.run_op(0, workloads.WORKLOADS["relax"], 1, None, tmp_path, traced=False)
    assert bool(op["failures"]) is failed


def test_tail_percentile():
    assert run.tail_percentile([1.0] * 10) is None
    pct, value = run.tail_percentile([float(i) for i in range(40)])
    assert pct == 75.0 and value == 29.0



def test_host_speed_scales_to_the_reference_speed():
    host = hostspeed.HostSpeed("mixed")
    ref, n = host.reference_s, hostspeed.MIN_SAMPLES
    # chunks twice as slow as the reference inside [0, 10), four times after
    host.samples = [(1.0 + k, 1.0 + k + 2 * ref) for k in range(n)]
    host.samples += [(20.0 + k, 20.0 + k + 4 * ref) for k in range(n)]
    assert host.sampled_inside(0.0, 10.0) == pytest.approx(2 * n * ref)
    assert host.adjust(0.0, 10.0, 3.0) == pytest.approx(1.5)
    # too few samples inside: the nearest ones stand in
    assert host.adjust(22.0, 22.5, 1.0) == pytest.approx(0.25)


@pytest.mark.parametrize("chunk", sorted(hostspeed.CHUNKS))
def test_sampling_runs_and_stops(chunk):
    host = hostspeed.HostSpeed(chunk)
    with host.sampling():
        deadline = time.perf_counter() + 5 * hostspeed.SAMPLE_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    taken = len(host.samples)
    assert taken >= 2
    time.sleep(3 * hostspeed.SAMPLE_INTERVAL_S)
    assert len(host.samples) == taken
