"""Command-line runner: INI configs in, CSV/JSON artifacts out.

Exit codes: 0 ok, 2 invalid config or input value, 3 model-condition
failure (e.g. a convergence verdict requested with C_lambda != C_mu), 4
numerical failure; each error class carries its code as `exit_code`.
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

_KNOWN_KEYS = {
    "model": {
        "c", "c_lambda", "c_mu", "alpha", "beta", "beta_value", "beta_table",
        "beta_table_start", "beta_left", "beta_right", "beta_slope",
    },
    "window": {"m", "n_min", "size"},
    "initial": {"p", "p_table", "p_table_start", "l0", "m0"},
    "integrator": {"method", "dt_init", "rel_tol", "abs_tol", "n_samples"},
    "run": {"t_final", "seed", "out", "verdict"},
    "kernel": {"t0", "t1", "k_max", "substeps", "splits", "path"},
    "paths": {"n_paths", "sample_times", "path"},
    "particles": {"n", "dt", "t_final", "n_samples"},
    "solve": {"k", "s"},
    "diagnose": {"input"},
}


class RunConfig:
    """Validated run configuration; unknown sections/keys are rejected."""

    def __init__(self, parser: configparser.ConfigParser):
        for section in parser.sections():
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser[section]:
                if key not in _KNOWN_KEYS[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
        self._p = parser
        self.params = self._build_params()
        self.window = self._build_window()

    # -- raw access with sane errors -------------------------------------
    def get(self, section: str, key: str, default=None) -> Optional[str]:
        return self._p.get(section, key, fallback=default)

    def getfloat(self, section, key, default=None):
        try:
            v = self._p.getfloat(section, key, fallback=default)
        except ValueError as e:
            raise ConfigError(f"[{section}] {key}: {e}") from e
        if v is not None and not math.isfinite(v):
            raise ConfigError(f"[{section}] {key}: must be finite, got {v}")
        return v

    def getint(self, section, key, default=None):
        try:
            v = self._p.getint(section, key, fallback=default)
        except ValueError as e:
            raise ConfigError(f"[{section}] {key}: {e}") from e
        return v

    def getlist(self, section, key, kind=float, default=None) -> list:
        """Comma-separated finite values of one kind; a blank value is the
        empty list.  A missing key gives `default`, or is an error when
        `default` is None."""
        if default is None:
            raw = self.require(section, key)
        else:
            raw = self.get(section, key, default)
        if not raw.strip():
            return []
        try:
            values = [kind(tok) for tok in raw.split(",")]
        except ValueError as e:
            raise ConfigError(f"[{section}] {key}: {e}") from e
        for v in values:
            if not math.isfinite(v):
                raise ConfigError(f"[{section}] {key}: must be finite, got {v}")
        return values

    def require(self, section, key, kind=str):
        if not self._p.has_option(section, key):
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
        if kind is float:
            return self.getfloat(section, key)
        if kind is int:
            return self.getint(section, key)
        return self._p.get(section, key)

    # -- assembled pieces -------------------------------------------------
    def _build_params(self) -> ModelParams:
        kind = self.get("model", "beta", "constant")
        try:
            if kind == "constant":
                beta = ConstantBeta(self.getfloat("model", "beta_value", 1.0))
            elif kind == "table":
                beta = TableBeta(
                    values=tuple(self.getlist("model", "beta_table")),
                    n_min=self.getint("model", "beta_table_start", 0),
                    left=self.getfloat("model", "beta_left", None),
                    right=self.getfloat("model", "beta_right", None),
                )
            elif kind == "lineardrift":
                beta = LinearDriftBeta(
                    slope=self.getfloat("model", "beta_slope", 1.0),
                    c=self.getfloat("model", "c", 1.0),
                )
            else:
                raise ConfigError(f"unknown beta profile {kind!r}")
            return ModelParams(
                c=self.getfloat("model", "c", 1.0),
                C_lambda=self.getfloat("model", "c_lambda", 1.0),
                C_mu=self.getfloat("model", "c_mu", 1.0),
                beta=beta,
                alpha=self.getfloat("model", "alpha", 0.0),
            )
        except (InvalidProfile, ValueError) as e:
            raise ConfigError(f"invalid model section: {e}") from e

    def _build_window(self) -> Window:
        if self._p.has_option("window", "m"):
            m = self.getint("window", "m")
            if m < 1:
                raise ConfigError(f"window half-width m must be >= 1, got {m}")
            return Window.symmetric(m)
        if self._p.has_option("window", "n_min"):
            return Window(
                self.require("window", "n_min", int),
                self.require("window", "size", int),
            )
        return Window.symmetric(25)

    def initial_state(self) -> SystemState:
        spec = self.get("initial", "p", "delta:0")
        try:
            if spec.startswith("delta:"):
                p0 = LatticeMeasure.delta(int(spec.split(":", 1)[1]), self.window)
            elif spec.startswith("gaussian:"):
                s = float(spec.split(":", 1)[1])
                p0 = discrete_gaussian(self.params.c, s, self.window)
            elif spec == "table":
                start = self.getint("initial", "p_table_start", self.window.n_min)
                vals = np.zeros(self.window.size)
                for i, x in enumerate(self.getlist("initial", "p_table")):
                    vals[self.window.index(start + i)] = x
                p0 = LatticeMeasure.normalized(self.window, vals)
            else:
                raise ConfigError(f"unknown initial measure spec {spec!r}")
            return SystemState(
                p=p0,
                L=self.getfloat("initial", "l0", 1.3),
                M=self.getfloat("initial", "m0", -0.4),
            )
        except (ValueError, IndexError, WindowTooNarrow) as e:
            raise ConfigError(f"invalid initial section: {e}") from e

    def integrator(self) -> IntegratorConfig:
        # one integrator; the key stays so that configs naming it still load
        method = self.get("integrator", "method", "splitting")
        if method != "splitting":
            raise ConfigError(f"unknown integrator method {method!r}")
        try:
            return IntegratorConfig(
                dt_init=self.getfloat("integrator", "dt_init", 1e-3),
                rel_tol=self.getfloat("integrator", "rel_tol", 1e-8),
                abs_tol=self.getfloat("integrator", "abs_tol", 1e-12),
                n_samples=self.getint("integrator", "n_samples", 201),
            )
        except ValueError as e:
            raise ConfigError(f"invalid integrator section: {e}") from e

    def resolved(self) -> dict:
        return {s: dict(self._p[s]) for s in self._p.sections()}


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
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
    p.mkdir(parents=True, exist_ok=True)
    return p


def _seed(cfg: RunConfig, args) -> int:
    if args.seed is not None:
        return args.seed
    return cfg.getint("run", "seed", 0)


def _write_json(path: Path, payload: dict, cfg: RunConfig) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    payload["config"] = cfg.resolved()
    # strict JSON has no NaN or Infinity: a non-finite float becomes null
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _integrate(cfg: RunConfig) -> TrajectoryLog:
    T = cfg.getfloat("run", "t_final", 20.0)
    return integrate(cfg.params, cfg.initial_state(), T, cfg.integrator())


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
    log = annotate(cfg.params, _integrate(cfg))
    report = monitor(log)
    K0 = log.samples[0].K
    s_star = pi_star = None
    if cfg.params.mean_reverting:
        s_star = solve_s_from_K(cfg.params, K0)
        try:
            pi_star = fixed_point(cfg.params, s_star, log.window).pi
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
            "s_final": log.final().s,
            "tv_final": tv_final,
            "W_violations": report.violations,
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
    k = cfg.getfloat("solve", "k", None)
    return conserved_K(cfg.initial_state()) if k is None else k


def cmd_fixed_point(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    s = cfg.getfloat("solve", "s", None)
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


def _frozen_path(cfg: RunConfig, section: str) -> kernel_mod.FrozenPath:
    mode = cfg.get(section, "path", "constant")
    state0 = cfg.initial_state()
    if mode == "constant":
        return kernel_mod.FrozenPath.constant(state0.L, state0.M)
    if mode == "dynamics":
        return kernel_mod.FrozenPath.from_log(_integrate(cfg))
    raise ConfigError(f"unknown path mode {mode!r} in [{section}]")


def cmd_kernel_check(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    t0 = cfg.getfloat("kernel", "t0", 0.0)
    t1 = cfg.getfloat("kernel", "t1", 1.0)
    substeps = cfg.getint("kernel", "substeps", 50)
    splits = cfg.getlist("kernel", "splits", float, "")
    for tm in splits:
        if not t0 < tm < t1:
            raise ConfigError(f"[kernel] splits: {tm} outside ({t0}, {t1})")
    k_maxes = cfg.getlist("kernel", "k_max", int, "")
    for k in k_maxes:
        if k < 0:
            raise ConfigError(f"[kernel] k_max: must be >= 0, got {k}")
    path = _frozen_path(cfg, "kernel")
    P = kernel_mod.propagate(cfg.params, path, t0, t1, cfg.window, substeps)
    ck_dev = 0.0
    for tm in splits:
        frac = (tm - t0) / (t1 - t0)
        sub_a = max(1, round(substeps * frac))
        A = kernel_mod.propagate(cfg.params, path, t0, tm, cfg.window, sub_a)
        B = kernel_mod.propagate(
            cfg.params, path, tm, t1, cfg.window, max(1, substeps - sub_a)
        )
        ck_dev = max(ck_dev, float(np.abs(A.rows @ B.rows - P.rows).max()))
    payload = {
        "t0": t0, "t1": t1,
        "row_sum_deficit": P.max_row_sum_error(),
        "min_entry": P.min_entry(),
        "ck_deviation": ck_dev,
    }
    if k_maxes:
        sums = kernel_mod.dyson_series(cfg.params, path, t0, t1, cfg.window, k_maxes)
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
    path = _frozen_path(cfg, "paths")
    n_paths = cfg.getint("paths", "n_paths", 1000)
    ts = cfg.getlist("paths", "sample_times", float, "0.0,1.0")
    state0 = cfg.initial_state()
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
    n = cfg.getint("particles", "n", 10000)
    dt = cfg.getfloat("particles", "dt", 1e-3)
    T = cfg.getfloat("particles", "t_final", cfg.getfloat("run", "t_final", 5.0))
    seed = _seed(cfg, args)
    log = run_particles(
        cfg.params, state0.p, state0.L, state0.M, n, T, dt, seed,
        n_samples=cfg.getint("particles", "n_samples", 51),
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
         "band_max": log.band_max},
        cfg,
    )
    print(f"particles: N={n} L(T)={fin.L:g} M(T)={fin.M:g}")
    return 0


def cmd_diagnose(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    src = Path(cfg.get("diagnose", "input", None) or out / "trajectory.csv")
    if not src.exists():
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
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
