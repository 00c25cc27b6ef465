"""The public surface stays what the library, README, benchmark and
acceptance suite use."""

import ast
import importlib.util
import re
import types
from pathlib import Path

import numpy as np
import pytest

import nlwalk

ROOT = Path(__file__).resolve().parents[1]


def _code_names(path):
    """Names a module's code loads or reads as attributes (not its def and
    class names, imports, docstrings or comments)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _module_defs(path):
    """The public functions and classes a module defines at its top level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def test_every_public_name_has_a_user():
    # a name only unit tests reach should not be exported, nor be defined
    # public in a module
    package = [p for p in (ROOT / "src" / "nlwalk").glob("*.py") if p.name != "__init__.py"]
    sources = [*package, *(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*map(_code_names, sources))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    public = {
        name for name, value in vars(nlwalk).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    public.update(name for path in package for name in _module_defs(path))
    unused = sorted(n for n in public if n not in used and not re.search(rf"\b{n}\b", readme))
    assert public and not unused, f"public but unused: {unused}"


def _dataclass_fields(path):
    """(class, field) of every public field of a public @dataclass."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        for stmt in cls.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and not stmt.target.id.startswith("_")
            ):
                yield cls.name, stmt.target.id


def test_every_dataclass_field_is_read():
    # a result field that no code reads is dead weight; the scan goes by
    # name, so a field that shares its name with an attribute read
    # elsewhere passes unseen
    package = sorted((ROOT / "src" / "nlwalk").glob("*.py"))
    sources = [*package, *(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    read = {
        node.attr
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [f for path in package for f in _dataclass_fields(path)]
    unread = [f"{cls}.{name}" for cls, name in fields if name not in read]
    assert fields and not unread, f"dataclass fields nothing reads: {unread}"


def _bench_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_bench_tracer_installs():
    # the benchmark's tracer wraps library functions by attribute; its own
    # tests are slow and run apart, so a renamed or dropped attribute it
    # binds to is caught here
    tracer = _bench_tracer()
    rate_arrays = nlwalk.kernel.rate_arrays
    with tracer.Tracer(0).installed():
        assert nlwalk.kernel.rate_arrays is not rate_arrays
    assert nlwalk.kernel.rate_arrays is rate_arrays


def test_bench_tracer_uniformization_margin():
    # the tracer's kernel.uniformization_margin reads generator_at(...).max_rate
    # and UNIFORMIZATION_LIMIT from nlwalk.kernel: on one traced propagate
    # call it is the largest max(lambda + mu) * tau / UNIFORMIZATION_LIMIT
    # over the substep midpoints
    t = _bench_tracer().Tracer(0)
    params, w, substeps = nlwalk.ModelParams(), nlwalk.Window.symmetric(8), 5
    path = nlwalk.FrozenPath(np.array([0.0, 1.0]), np.array([1.3, 0.2]), np.array([-0.4, 0.6]))
    with t.installed():
        nlwalk.kernel.propagate(params, path, 0.0, 1.0, w, substeps)
    tau = 1.0 / substeps
    expected = max(
        float((lam + mu).max()) * tau / nlwalk.kernel.UNIFORMIZATION_LIMIT
        for lam, mu in (
            nlwalk.rate_arrays(params, *path.at((k + 0.5) * tau), w) for k in range(substeps)
        )
    )
    assert expected > 0.0
    assert t.layer_metrics(0.0)["kernel.uniformization_margin"] == pytest.approx(
        expected, rel=1e-12
    )


def test_beta_is_read_only_in_model():
    # every rate and scan takes beta from model.log_beta_array, so no other
    # module calls a profile's log_value
    callers = [
        path.name for path in (ROOT / "src" / "nlwalk").glob("*.py")
        if path.name != "model.py"
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "log_value"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    ]
    assert not callers, f"log_value called outside model.py: {callers}"
