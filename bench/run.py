"""Benchmark of the nlwalk CLI: four closed-loop workloads run in-process.

Run from the repository root:

    python3 bench/run.py --workload relax --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): relax, particles, paths, kernel.  One
operation calls `nlwalk.cli.main(argv)` on generated configs in this
single-threaded process; the next operation starts when the previous one
ends, and none starts that could not end within --seconds.  Every artifact
is checked against fixed tolerances; an operation fails when the CLI exits
non-zero, raises, or fails a check.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json.  With --trace 1 the run alternates untraced and traced
operations and reports the per-layer metrics of the traced ones (medians
per operation) plus the tracing overhead.  op_s is adjusted for the
host's speed (see hostspeed.py); the raw seconds are printed and kept in
the results file.  The lines before it give the environment, the
operation times and the exit codes of the probes.  A results file, and
with --trace 1 the spans, go to .bench_out/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WARNING_CATEGORIES = ("RuntimeWarning", "UserWarning")


def setup(workload: str, work: Path) -> None:
    """Everything a run does before its first timed operation: pin BLAS to
    one thread, import nlwalk (with numpy and scipy), write and load the
    workload's first config."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import nlwalk.cli  # noqa: F401

    import workloads

    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    step = workloads.WORKLOADS[workload].steps(0)[0]
    workloads.load_step_config(step, work / "setup.ini").initial_state()


def measure_setup(workload: str, work: Path) -> list:
    """Seconds from spawning a fresh process to the end of its `setup`, as
    the child reads them on the system-wide monotonic clock.  They are not
    adjusted for the host's speed: sampling it in this process while a child
    sets up would compete with the child for the host's cores, and samples
    taken between children tracked it worse than none."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import run; "
        "run.setup(*sys.argv[2:4]); print(time.monotonic() - float(sys.argv[4]))"
    )
    times = []
    for k in range(SETUP_REPEATS):
        spawned = time.monotonic()
        child = subprocess.run(
            [sys.executable, "-c", code, str(BENCH), workload, str(work / f"setup{k}"),
             repr(spawned)],
            check=True, timeout=60, cwd=ROOT, capture_output=True, text=True,
        )
        times.append(float(child.stdout.split()[-1]))
    return times


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_steps(steps, op_dir: Path, tracer=None):
    """Run the CLI once per step; returns (exit codes, output dirs, start and
    end on the perf_counter clock, warnings by category, error)."""
    import nlwalk.cli

    import workloads

    op_dir.mkdir(parents=True)
    argvs, outs = [], []
    for i, (command, cfg) in enumerate(steps):
        cfg_path = workloads.write_config(cfg, op_dir / f"step{i}.ini")
        outs.append(op_dir / f"out{i}")
        argvs.append([command, "--config", str(cfg_path), "--out", str(outs[-1])])
    codes, error = [], None
    sink = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(sink), redirect_stderr(sink):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            with tracer.installed() if tracer is not None else nullcontext():
                for argv in argvs:
                    codes.append(nlwalk.cli.main(argv))
        except Exception as e:  # a traceback is a failed operation, not a crash
            error = f"{type(e).__name__}: {e}"
        end = time.perf_counter()
    by_category = Counter(w.category.__name__ for w in caught)
    return codes, outs, start, end, by_category, error


def run_op(index: int, workload, op_seed: int, ref, work: Path, traced: bool,
           host=None) -> dict:
    """One operation; its seconds leave out the host-speed sampling that ran
    inside it."""
    import tracer as tracing

    tracer = tracing.Tracer(index) if traced else None
    op_dir = work / f"op{index}"
    codes, outs, start, end, warned, error = run_steps(
        workload.steps(op_seed), op_dir, tracer
    )
    seconds = end - start - (host.sampled_inside(start, end) if host is not None else 0.0)
    failures, accuracy = [], {}
    if error is not None:
        failures.append(f"raised {error}")
    elif any(codes):
        failures.append(f"exit codes {codes}")
    else:
        try:
            failures, accuracy = workload.check(outs, ref)
        except Exception as e:  # unreadable or malformed artifact
            failures.append(f"check raised {type(e).__name__}: {e}")
    shutil.rmtree(op_dir)
    op = {
        "index": index, "traced": traced, "seed": op_seed,
        "start": start, "end": end, "seconds": seconds,
        "exit_codes": codes, "failures": failures, "accuracy": accuracy,
        "warnings": dict(warned),
    }
    if tracer is not None:
        layers = tracer.layer_metrics(seconds)
        layers["cli.warnings"] = sum(warned.values())
        for category in WARNING_CATEGORIES:
            layers[f"cli.warnings.{category}"] = warned[category]
        op["layers"] = layers
        op["spans"] = tracer.span_records()
    return op


def run_probes(work: Path) -> dict:
    """Exit code of each probe in workloads.PROBES (-1 when it raises)."""
    import workloads

    exits = {}
    for name, step in workloads.PROBES.items():
        codes, _, _, _, _, error = run_steps([step], work / name)
        exits[name] = -1 if error is not None else codes[0]
    return exits


def tail_percentile(times: list):
    """(percentile, seconds) of the highest percentile with at least ten
    samples above it, or None when there are too few samples."""
    n = len(times)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def closed_loop(workload, ref, seed: int, seconds: float, trace: bool, work: Path,
                host) -> list:
    """Operations back to back for `seconds`; with trace, alternately
    untraced and traced, at least one of each."""
    rng = random.Random(seed)
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(ops) % 2 == 1
        ops.append(run_op(len(ops), workload, rng.randrange(1, 2**31), ref, work, traced, host))
        if trace and len(ops) < 2:
            continue
        next_s = max(op["end"] - op["start"] for op in ops[-2:])
        if time.perf_counter() + next_s > deadline:
            return ops


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nlwalk" / "__init__.py").is_file():
        print(f"error: no nlwalk sources under {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    try:
        setup(args.workload, work)
        import hostspeed
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        env = environment(args)
        print("env " + json.dumps(env, sort_keys=True))
        setup_times = measure_setup(args.workload, work)
        host = hostspeed.HostSpeed(workload.host_chunk)
        with host.sampling():
            ref = None
            if workload.reference is not None:
                first = workload.steps(0)[0]
                ref = workload.reference(workloads.load_step_config(first, work / "ref.ini"))
            ops = closed_loop(
                workload, ref, args.seed, args.seconds, bool(args.trace), work, host
            )
        probe_exits = run_probes(work)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for op in ops:
        op["adjusted_s"] = host.adjust(op["start"], op["end"], op["seconds"])
    failed = sum(1 for op in ops if op["failures"])
    untraced = [op["adjusted_s"] for op in ops if not op["traced"]]
    if args.trace:
        traced = [op for op in ops if op["traced"]]
        per_op = [{**op["accuracy"], **op["layers"]} for op in traced]
        # a layer the workload does not reach reads 0 (see its .calls)
        metrics = {
            spec["name"]: statistics.median(m.get(spec["name"], 0.0) for m in per_op)
            for spec in benchmark["per_layer"]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(op["adjusted_s"] for op in traced) - statistics.median(untraced)
        )
        metrics.update(probe_exits)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s": statistics.median(untraced),
            "peak_rss_mb": peak_rss_mb,
            "ops_ok_ratio": 1.0 - failed / len(ops),
        }
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}

    for op in ops:
        status = "ok" if not op["failures"] else "FAILED: " + "; ".join(op["failures"])
        accuracy = " ".join(f"{k}={v:.3g}" for k, v in sorted(op["accuracy"].items()))
        print(f"op {op['index']}{' traced' if op['traced'] else ''}: "
              f"{op['seconds']:.4f} s raw, {op['adjusted_s']:.4f} s adjusted "
              f"{accuracy} {status}")
    tail = tail_percentile(untraced)
    raw = statistics.median(op["seconds"] for op in ops if not op["traced"])
    print(f"op_s median {statistics.median(untraced):.4f} s adjusted ({raw:.4f} s raw) "
          f"over {len(untraced)} untraced ops"
          + (f", p{tail[0]:.0f} {tail[1]:.4f} s adjusted" if tail else ""))
    print(f"setup_s samples {' '.join(f'{t:.4f}' for t in setup_times)}")
    chunks = [e - s for s, e in host.samples]
    print(f"host speed: {len(chunks)} samples of the {workload.host_chunk} chunk, median "
          f"{statistics.median(chunks):.5f} s (reference {host.reference_s} s)")
    print("probes (README config, known defects): "
          + " ".join(f"{k} {v}" for k, v in probe_exits.items()))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [record for op in ops for record in op.pop("spans", [])]
    if spans:
        with (OUT / f"{stem}.spans.jsonl").open("w") as fh:
            for record in spans:
                fh.write(json.dumps(record) + "\n")
    (OUT / f"{stem}.json").write_text(json.dumps({
        "env": env, "probes": probe_exits, "ops": ops, "metrics": metrics,
        "setup_s": setup_times,
        "host_samples": host.samples,
    }, indent=1, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
