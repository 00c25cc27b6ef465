"""Per-layer tracing of nlwalk from outside the package.

`Tracer.installed()` replaces library functions at the module attributes
through which the CLI and the library call them, and restores them on exit;
no file of the package is edited.  Functions in SPANNED get one span per
call (id, parent, name, start, end).  The hot inner functions in COUNTED run
thousands of times per operation, so they only add to a call count and a
busy time.  One Tracer traces one operation; its spans share the
operation's index.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List

import numpy as np

from nlwalk.kernel import UNIFORMIZATION_LIMIT, generator_at

# (module, attribute at the binding site, layer metric prefix)
SPANNED = [
    ("nlwalk.cli", "integrate", "dynamics.integrate"),
    ("nlwalk.cli", "run_particles", "particles.run"),
    ("nlwalk.kernel", "sample_paths", "kernel.sample_paths"),
    ("nlwalk.kernel", "propagate", "kernel.propagate"),
    ("nlwalk.kernel", "dyson_series", "kernel.dyson_series"),
    ("nlwalk.cli", "annotate", "lyapunov.annotate"),
    ("nlwalk.cli", "monitor", "lyapunov.monitor"),
    ("nlwalk.cli", "solve_s_from_K", "equilibrium.solve_s"),
    ("nlwalk.cli", "fixed_point", "equilibrium.fixed_point"),
    ("nlwalk.cli", "write_measure_csv", "lattice.write_csv"),
    ("nlwalk.kernel", "write_kernel_csv", "lattice.write_csv"),
    ("nlwalk.kernel", "write_paths_csv", "lattice.write_csv"),
]
COUNTED = [
    ("nlwalk.dynamics", "eigh_tridiagonal", "dynamics.eigensolve"),
    ("nlwalk.dynamics", "rate_arrays", "model.rate_arrays"),
    ("nlwalk.particles", "rate_arrays", "model.rate_arrays"),
    ("nlwalk.kernel", "rate_arrays", "model.rate_arrays"),
    ("nlwalk.equilibrium", "rate_arrays", "model.rate_arrays"),
    ("nlwalk.particles", "Ensemble.step", "particles.step"),
]
# calls whose arguments and result the metrics below read after the operation
KEEP = {
    "dynamics.integrate", "particles.run", "kernel.sample_paths",
    "kernel.propagate", "lyapunov.monitor",
}


def _owner(module: str, dotted: str):
    obj = importlib.import_module(module)
    *path, attr = dotted.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, attr


class Tracer:
    def __init__(self, op_index: int):
        self.op_index = op_index
        self.spans: List[tuple] = []  # (id, parent, name, start, end)
        self.calls: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0  # time in wrapped calls made directly by the CLI
        self.kept: Dict[str, list] = defaultdict(list)
        self._stack = [0]  # open span ids; 0 is the operation itself
        self._depth = 0

    def _wrap(self, name, fn, span):
        signature = inspect.signature(fn) if name in KEEP else None

        def traced(*args, **kwargs):
            parent = self._stack[-1]
            if span:
                span_id = len(self.spans) + 1
                self.spans.append(None)  # reserve the id; filled in below
                self._stack.append(span_id)
            self._depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._depth -= 1
                if span:
                    self._stack.pop()
                    self.spans[span_id - 1] = (span_id, parent, name, start, end)
                self.calls[name] += 1
                self.busy[name] += end - start
                if self._depth == 0:
                    self.top_level_s += end - start
            if signature is not None:
                self.kept[name].append((signature, args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for targets, span in ((SPANNED, True), (COUNTED, False)):
                for module, dotted, name in targets:
                    owner, attr = _owner(module, dotted)
                    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(name, fn, span))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def _kept_args(self, name):
        for signature, args, kwargs, result in self.kept[name]:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            yield bound.arguments, result

    def span_records(self) -> List[dict]:
        """Spans and per-name counters of this operation, for the trace file."""
        records = [
            {"op": self.op_index, "id": i, "parent": p, "name": n, "start": s, "end": e}
            for i, p, n, s, e in self.spans
        ]
        for name in sorted({name for _, _, name in COUNTED}):
            if self.calls[name]:
                records.append({
                    "op": self.op_index, "counter": name,
                    "calls": self.calls[name], "busy_s": self.busy[name],
                })
        return records

    def layer_metrics(self, op_s: float) -> Dict[str, float]:
        """Per-layer metrics of the traced operation that took op_s seconds.
        Call it after `installed()` has exited: the library calls it makes
        must not be counted."""
        calls, busy = self.calls, self.busy
        m = {}
        for name in ("dynamics.integrate", "dynamics.eigensolve",
                     "model.rate_arrays", "kernel.propagate"):
            m[f"{name}.busy_s"] = busy[name]
            m[f"{name}.calls"] = calls[name]
        for name in ("particles.run", "kernel.sample_paths", "kernel.dyson_series",
                     "lyapunov.annotate", "lyapunov.monitor", "equilibrium.solve_s",
                     "equilibrium.fixed_point", "lattice.write_csv"):
            m[f"{name}.busy_s"] = busy[name]

        # one eigensolve per Strang step
        m["dynamics.step_us"] = _per(busy["dynamics.integrate"], calls["dynamics.eigensolve"], 1e6)
        samples = [s for _, log in self._kept_args("dynamics.integrate") for s in log.samples]
        m["dynamics.min_p"] = min((s.min_p for s in samples), default=0.0)
        m["dynamics.boundary_mass_max"] = max((s.boundary_mass for s in samples), default=0.0)

        m["particles.step_us"] = _per(busy["particles.step"], calls["particles.step"], 1e6)
        walkers = sum(a["n_particles"] for a, _ in self._kept_args("particles.run"))
        m["particles.walker_steps_per_s"] = _per(
            walkers * calls["particles.step"], busy["particles.run"]
        )

        n_paths = sum(a["n_paths"] for a, _ in self._kept_args("kernel.sample_paths"))
        m["kernel.paths_per_s"] = _per(n_paths, busy["kernel.sample_paths"])

        propagations = [a for a, _ in self._kept_args("kernel.propagate")]
        substeps = sum(a["substeps"] for a in propagations)
        m["kernel.substep_us"] = _per(busy["kernel.propagate"], substeps, 1e6)
        m["kernel.uniformization_margin"] = max(
            (_uniformization_margin(a) for a in propagations), default=0.0
        )

        m["lyapunov.W_violations"] = sum(
            report.violations for _, report in self._kept_args("lyapunov.monitor")
        )
        m["cli.self_s"] = op_s - self.top_level_s
        return m


def _per(amount, base, scale=1.0):
    return scale * amount / base if base else 0.0


def _uniformization_margin(args) -> float:
    """max over substeps of lambda_dom * tau / UNIFORMIZATION_LIMIT, with the
    generator frozen at each substep midpoint as `propagate` does."""
    edges = np.linspace(args["t0"], args["t1"], args["substeps"] + 1)
    worst = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        gen = generator_at(args["params"], args["path"], 0.5 * (a + b), args["window"])
        worst = max(worst, gen.max_rate * (b - a))
    return worst / UNIFORMIZATION_LIMIT
