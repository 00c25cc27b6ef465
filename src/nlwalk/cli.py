"""Command-line runner: INI configs in, CSV/JSON artifacts out.

Exit codes: 0 ok, 2 invalid config or input value, 3 model-condition
failure (e.g. a convergence verdict requested with C_lambda != C_mu), 4
numerical failure or an allocation that ran out of memory; each error
class carries its code as `exit_code`.
Identical config + seed gives byte-identical CSV output; floats are
written with repr() so they round-trip exactly.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from . import kernel as kernel_mod
from .dynamics import (
    IntegratorConfig,
    SystemState,
    TrajectoryLog,
    conserved_K,
    integrate,
)
from .equilibrium import K_of_s, discrete_gaussian, fixed_point, solve_s_from_K
from .errors import (
    ConfigError,
    InvalidProfile,
    ModelConditionError,
    NlwalkError,
    WindowTooNarrow,
)
from .lattice import LatticeMeasure, Window, total_variation, write_measure_csv
from .lyapunov import W_increases, annotate, monitor
from .model import ConstantBeta, LinearDriftBeta, ModelParams, TableBeta
from .particles import run_particles

SCHEMA_VERSION = "nlwalk-1"

# every config key and the kind of its value: str, int, float (finite),
# or [float] / [int] for a comma-separated list (a blank value is empty)
_KEYS = {
    "model": {
        "c": float, "c_lambda": float, "c_mu": float, "alpha": float, "beta": str,
        "beta_value": float, "beta_table": [float], "beta_table_start": int,
        "beta_left": float, "beta_right": float, "beta_slope": float,
    },
    "window": {"m": int, "n_min": int, "size": int},
    "initial": {"p": str, "p_table": [float], "p_table_start": int, "l0": float, "m0": float},
    "integrator": {"method": str, "dt_init": float, "rel_tol": float, "n_samples": int},
    "run": {"t_final": float, "seed": int, "out": str, "verdict": str},
    "kernel": {
        "t0": float, "t1": float, "k_max": [int], "substeps": int,
        "splits": [float], "path": str,
    },
    "paths": {"n_paths": int, "sample_times": [float], "path": str},
    "particles": {"n": int, "dt": float, "t_final": float, "n_samples": int},
    "solve": {"k": float, "s": float},
    "diagnose": {"input": str},
}
_REQUIRED = object()  # the default of a key that must be set


class RunConfig:
    """Validated run configuration; unknown sections/keys are rejected."""

    def __init__(self, parser: configparser.ConfigParser):
        for section in parser.sections():
            if section not in _KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser[section]:
                if key not in _KEYS[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
        self._p = parser
        self.params = self._build_params()
        self.window = self._build_window()

    def get(self, section: str, key: str, default=None):
        """[section] key parsed by its kind in _KEYS.  A missing key gives
        default, or is an error when default is _REQUIRED."""
        if not self._p.has_option(section, key):
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
            return default
        raw = self._p.get(section, key)
        kind = _KEYS[section][key]
        if kind is str:
            return raw
        many = isinstance(kind, list)
        if many:
            kind = kind[0]
        tokens = (raw.split(",") if raw.strip() else []) if many else [raw]
        try:
            values = [kind(tok) for tok in tokens]
        except ValueError as e:
            raise ConfigError(f"[{section}] {key}: {e}") from e
        for v in values:
            if kind is float and not math.isfinite(v):
                raise ConfigError(f"[{section}] {key}: must be finite, got {v}")
        return values if many else values[0]

    getfloat = get  # bench/workloads.py reads [run] t_final through it

    def _given(self, section: str, *keys: str, **renamed: str) -> dict:
        """{field: value} for each key that [section] sets, the field named
        as the key or by renamed (field=key): the arguments of the library
        object those fields configure, so a key left out takes its default."""
        fields = {**dict(zip(keys, keys)), **renamed}.items()
        return {f: self.get(section, k) for f, k in fields if self._p.has_option(section, k)}

    # -- assembled pieces -------------------------------------------------
    def _build_params(self) -> ModelParams:
        kind = self.get("model", "beta", "constant")
        try:
            if kind == "constant":
                beta = ConstantBeta(**self._given("model", b="beta_value"))
            elif kind == "table":
                beta = TableBeta(
                    values=tuple(self.get("model", "beta_table", _REQUIRED)),
                    **self._given("model", n_min="beta_table_start",
                                  left="beta_left", right="beta_right"),
                )
            elif kind == "lineardrift":
                beta = LinearDriftBeta(**self._given("model", slope="beta_slope", c="c"))
            else:
                raise ConfigError(f"unknown beta profile {kind!r}")
            given = self._given("model", "c", C_lambda="c_lambda", C_mu="c_mu", alpha="alpha")
            return ModelParams(beta=beta, **given)
        except (InvalidProfile, ValueError) as e:
            raise ConfigError(f"invalid model section: {e}") from e

    def _build_window(self) -> Window:
        m = self.get("window", "m")
        placed = [k for k in ("n_min", "size") if self._p.has_option("window", k)]
        if placed and m is not None:
            raise ConfigError(f"[window] m excludes {' and '.join(placed)}")
        if placed:
            return Window(
                self.get("window", "n_min", _REQUIRED),
                self.get("window", "size", _REQUIRED),
            )
        m = 25 if m is None else m
        if m < 1:
            raise ConfigError(f"window half-width m must be >= 1, got {m}")
        return Window.symmetric(m)

    def initial_state(self) -> SystemState:
        spec = self.get("initial", "p", "delta:0")
        try:
            if spec.startswith("delta:"):
                p0 = LatticeMeasure.delta(int(spec.split(":", 1)[1]), self.window)
            elif spec.startswith("gaussian:"):
                s = float(spec.split(":", 1)[1])
                p0 = discrete_gaussian(self.params.c, s, self.window)
            elif spec == "table":
                start = self.get("initial", "p_table_start", self.window.n_min)
                vals = np.zeros(self.window.size)
                for i, x in enumerate(self.get("initial", "p_table", _REQUIRED)):
                    vals[self.window.index(start + i)] = x
                p0 = LatticeMeasure.normalized(self.window, vals)
            else:
                raise ConfigError(f"unknown initial measure spec {spec!r}")
            return SystemState(
                p=p0,
                L=self.get("initial", "l0", 1.3),
                M=self.get("initial", "m0", -0.4),
            )
        except (ValueError, IndexError, WindowTooNarrow) as e:
            raise ConfigError(f"invalid initial section: {e}") from e

    def integrator(self) -> IntegratorConfig:
        # one integrator; the key stays so that configs naming it still load
        method = self.get("integrator", "method", "splitting")
        if method != "splitting":
            raise ConfigError(f"unknown integrator method {method!r}")
        try:
            given = self._given("integrator", "dt_init", "rel_tol", "n_samples")
            return IntegratorConfig(**given)
        except ValueError as e:
            raise ConfigError(f"invalid integrator section: {e}") from e

    def resolved(self) -> dict:
        return {s: dict(self._p[s]) for s in self._p.sections()}


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as e:
        raise ConfigError(f"cannot parse config {path}: {e}") from e
    if not read:
        raise ConfigError(f"config file not found: {path}")
    return RunConfig(parser)


def _out_dir(cfg: RunConfig, args) -> Path:
    out = args.out or cfg.get("run", "out", ".")
    p = Path(out)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make the output directory {p}: {e.strerror}") from e
    return p


def _seed(cfg: RunConfig, args) -> int:
    if args.seed is not None:
        return args.seed
    return cfg.get("run", "seed", 0)


def _write_json(path: Path, payload: dict, cfg: RunConfig) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    payload["config"] = cfg.resolved()
    # strict JSON has no NaN or Infinity: a non-finite float becomes null
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _t_final(cfg: RunConfig) -> float:
    """[run] t_final: the end of the dynamics that _integrate runs, and of
    particles when [particles] t_final is left out."""
    return cfg.get("run", "t_final", 20.0)


def _integrate(cfg: RunConfig, state0: SystemState) -> TrajectoryLog:
    return integrate(cfg.params, state0, _t_final(cfg), cfg.integrator())


def _write_trajectory_csv(
    path: Path, log: TrajectoryLog, pi_star: Optional[LatticeMeasure]
) -> float:
    """One row per sample; returns the final TV to pi_star (nan when it is
    None)."""
    tv_final = math.nan
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["t", "L", "M", "s", "d", "K", "mass", "boundary_mass",
             "Q", "H", "W", "tv_to_fixed_point"]
        )
        for smp in log.samples:
            tv = (
                total_variation(smp.state.p, pi_star)
                if pi_star is not None
                else math.nan
            )
            tv_final = tv
            w.writerow(
                [repr(float(x)) for x in (
                    smp.t, smp.state.L, smp.state.M, smp.state.s, smp.state.d,
                    smp.K, smp.mass, smp.boundary_mass, smp.Q, smp.H, smp.W, tv,
                )]
            )
    return tv_final


def cmd_simulate(cfg: RunConfig, args) -> int:
    verdict = cfg.get("run", "verdict", None)
    if verdict not in (None, "converge"):
        raise ConfigError(f"unknown verdict {verdict!r}")
    if verdict == "converge" and not cfg.params.mean_reverting:
        raise ModelConditionError(
            "convergence verdict requested but C_lambda != C_mu: "
            "there are no fixed points"
        )
    out = _out_dir(cfg, args)
    log = annotate(_integrate(cfg, cfg.initial_state()))
    report = monitor(log)
    K0 = log.samples[0].K
    s_star = pi_star = K_residual = None
    if cfg.params.mean_reverting:
        s_star = solve_s_from_K(cfg.params, K0)
        K_residual = K_of_s(cfg.params, s_star) - K0
        try:
            pi_star = discrete_gaussian(cfg.params.c, s_star, log.window)
        except NlwalkError:
            pass
    tv_final = _write_trajectory_csv(out / "trajectory.csv", log, pi_star)
    with (out / "final_measure.csv").open("w", newline="") as fh:
        write_measure_csv(log.final().p, fh)
    _write_json(
        out / "summary.json",
        {
            "K0": K0,
            "K_drift_max": max(abs(s.K - K0) for s in log.samples),
            "s_star": s_star,
            "K_residual": K_residual,
            "s_final": log.final().s,
            "tv_final": tv_final,
            "W_violations": report.violations,
            "max_violation": report.max_violation,
            "q_max": report.q_max,
            "q_bound": report.q_bound,
            "q_bounded": report.q_bounded,
            "mean_offset_max": report.mean_offset_max,
            "mean_offset_bound": report.mean_offset_bound,
            "fixed_point_exists": cfg.params.mean_reverting,
            "steps": log.steps,
            "rejected_steps": log.rejected_steps,
            "band_max": log.band_max,
            "truncation_max": log.truncation_max,
        },
        cfg,
    )
    print(f"simulate: T={log.samples[-1].t:g} tv_final={tv_final:g} "
          f"W_violations={report.violations}")
    return 0


def _solve_k(cfg: RunConfig) -> float:
    """[solve] k, by default the K0 of [initial]."""
    k = cfg.get("solve", "k")
    return conserved_K(cfg.initial_state()) if k is None else k


def cmd_fixed_point(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    s = cfg.get("solve", "s")
    if s is None:
        s = solve_s_from_K(cfg.params, _solve_k(cfg))
    fp = fixed_point(cfg.params, s, cfg.window)
    payload = {
        "s": fp.s, "d": fp.d, "L_s": fp.L_s, "M_s": fp.M_s,
        "Xi": fp.Xi, "K": K_of_s(cfg.params, s),
    }
    _write_json(out / "fixed_point.json", payload, cfg)
    with (out / "pi.csv").open("w", newline="") as fh:
        write_measure_csv(fp.pi, fh)
    print(json.dumps(payload))
    return 0


def cmd_solve_s(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    K = _solve_k(cfg)
    s = solve_s_from_K(cfg.params, K)
    _write_json(out / "solve_s.json", {"K": K, "s_star": s}, cfg)
    print(f"s*={s!r}")
    return 0


def _path_mode(cfg: RunConfig, section: str) -> str:
    """[section] path: the (L, M) that kernel-check or sample-paths freezes."""
    mode = cfg.get(section, "path", "constant")
    if mode not in ("constant", "dynamics"):
        raise ConfigError(f"unknown path mode {mode!r} in [{section}]")
    return mode


def _path_span(cfg: RunConfig, mode: str):
    """The span of the path _frozen_path will build."""
    return (0.0, _t_final(cfg)) if mode == "dynamics" else (-math.inf, math.inf)


def _frozen_path(cfg: RunConfig, mode: str, state0: SystemState) -> kernel_mod.FrozenPath:
    if mode == "dynamics":
        return kernel_mod.FrozenPath.from_log(_integrate(cfg, state0))
    return kernel_mod.FrozenPath.constant(state0.L, state0.M)


def cmd_kernel_check(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    mode = _path_mode(cfg, "kernel")
    t0 = cfg.get("kernel", "t0", 0.0)
    t1 = cfg.get("kernel", "t1", 1.0)
    substeps = cfg.get("kernel", "substeps", 50)
    # propagate's own refusals, made before the path is integrated
    kernel_mod.check_propagate_args(_path_span(cfg, mode), t0, t1, substeps)
    splits = cfg.get("kernel", "splits", [])
    for tm in splits:
        if not t0 < tm < t1:
            raise ConfigError(f"[kernel] splits: {tm} outside ({t0}, {t1})")
    k_maxes = cfg.get("kernel", "k_max", [])
    if k_maxes and mode != "constant":
        raise ConfigError("[kernel] k_max: the Dyson series needs path = constant")
    path = _frozen_path(cfg, mode, cfg.initial_state())
    # the series refuses a k_max it cannot hold before any exponential is built
    sums = (kernel_mod.dyson_series(cfg.params, *path.at(t0), t0, t1, cfg.window, k_maxes)
            if k_maxes else [])
    # one store of substep exponentials for P and every split's A and B,
    # dropped when the command returns
    exps = {}
    P = kernel_mod.propagate(cfg.params, path, t0, t1, cfg.window, substeps, exps=exps)
    ck_dev = 0.0
    for tm in splits:
        frac = (tm - t0) / (t1 - t0)
        sub_a = max(1, round(substeps * frac))
        A = kernel_mod.propagate(cfg.params, path, t0, tm, cfg.window, sub_a, exps=exps)
        B = kernel_mod.propagate(
            cfg.params, path, tm, t1, cfg.window, max(1, substeps - sub_a), exps=exps
        )
        ck_dev = max(ck_dev, float(np.abs(A.rows @ B.rows - P.rows).max()))
    payload = {
        "t0": t0, "t1": t1,
        "row_sum_deficit": P.max_row_sum_error(),
        "min_entry": P.min_entry(),
        "ck_deviation": ck_dev,
    }
    if k_maxes:
        payload["dyson"] = [
            {
                "k_max": k,
                "distance": kernel_mod.kernel_weighted_distance(approx, P, cfg.params.alpha),
                "remainder_bound": bound,
            }
            for k, (approx, bound) in zip(k_maxes, sums)
        ]
    with (out / "kernel.csv").open("w", newline="") as fh:
        kernel_mod.write_kernel_csv(P, fh)
    _write_json(out / "kernel_check.json", payload, cfg)
    print(f"kernel-check: ck_deviation={ck_dev:g} "
          f"row_sum_deficit={payload['row_sum_deficit']:g}")
    return 0


def cmd_sample_paths(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    mode = _path_mode(cfg, "paths")
    n_paths = cfg.get("paths", "n_paths", 1000)
    ts = cfg.get("paths", "sample_times", [0.0, 1.0])
    # sample_paths' own refusals, made before the path is integrated
    kernel_mod.check_sample_paths_args(_path_span(cfg, mode), ts, n_paths)
    # the start positions are drawn from [initial] p, the law at t = 0
    if ts[0] != 0.0:
        raise ConfigError(
            f"[paths] sample_times: the first must be 0, the time of [initial], got {ts[0]}"
        )
    state0 = cfg.initial_state()
    path = _frozen_path(cfg, mode, state0)
    walks = kernel_mod.sample_paths(
        cfg.params, path, state0.p, ts, n_paths, _seed(cfg, args)
    )
    with (out / "paths.csv").open("w", newline="") as fh:
        kernel_mod.write_paths_csv(walks, ts, fh)
    _write_json(
        out / "paths.json",
        {"n_paths": n_paths, "sample_times": ts, "seed": _seed(cfg, args)},
        cfg,
    )
    print(f"sample-paths: wrote {n_paths} paths x {len(ts)} times")
    return 0


def cmd_particles(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    state0 = cfg.initial_state()
    n = cfg.get("particles", "n", 10000)
    dt = cfg.get("particles", "dt", 1e-3)
    T = cfg.get("particles", "t_final", _t_final(cfg))
    seed = _seed(cfg, args)
    log = run_particles(
        cfg.params, state0.p, state0.L, state0.M, n, T, dt, seed,
        **cfg._given("particles", "n_samples"),
    )
    with (out / "particles.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "L", "M", "K_N"])
        for smp in log.samples:
            w.writerow([repr(float(x)) for x in (smp.t, smp.L, smp.M, smp.K_N)])
    with (out / "particles_final.csv").open("w", newline="") as fh:
        write_measure_csv(log.empirical_measure(), fh)
    fin = log.final()
    _write_json(
        out / "particles.json",
        {"n": n, "dt": dt, "t_final": T, "seed": seed,
         "L_final": fin.L, "M_final": fin.M, "K_N_final": fin.K_N,
         "steps": log.steps, "max_rate_dt": log.max_rate_dt,
         "band_max": log.band_max, "jumps": log.jumps},
        cfg,
    )
    print(f"particles: N={n} L(T)={fin.L:g} M(T)={fin.M:g}")
    return 0


def cmd_diagnose(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    src = Path(cfg.get("diagnose", "input", None) or out / "trajectory.csv")
    if not src.is_file():
        raise ConfigError(f"trajectory file not found: {src}")
    with src.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ConfigError(f"empty trajectory file: {src}")
    try:
        series = [
            {k: float(r[k]) for k in ("t", "Q", "H", "W", "K", "s")} for r in rows
        ]
    except (KeyError, ValueError) as e:
        raise ConfigError(f"bad trajectory row in {src}: {e}") from e
    violations, max_violation = W_increases([r["W"] for r in series])
    verdict = "monotone" if violations == 0 else "violations"
    _write_json(
        out / "diagnose.json",
        {"series": series, "W_violations": violations,
         "max_violation": max_violation, "verdict": verdict},
        cfg,
    )
    print(f"diagnose: W_violations={violations} verdict={verdict}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "fixed-point": cmd_fixed_point,
    "solve-s": cmd_solve_s,
    "kernel-check": cmd_kernel_check,
    "sample-paths": cmd_sample_paths,
    "particles": cmd_particles,
    "diagnose": cmd_diagnose,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlwalk",
        description="Nonlinear random walk laboratory: simulate, verify, sample.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="override run seed")
        p.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a library warning that is shown reaches stderr as one line, without
    # the source line Python echoes after it
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_, **__: f"warning: {message}\n"
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except NlwalkError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except ValueError as e:
        # a library call refused an input value the config passed through
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        # a size the config asked for could not be allocated
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 4
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
