import configparser
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nlwalk
from nlwalk import (
    IntegratorConfig,
    LatticeMeasure,
    ModelParams,
    SystemState,
    Window,
    annotate,
    integrate,
    monitor,
)
from nlwalk.cli import main
from nlwalk.dynamics import TRUNC_TOL

BASE = """
[model]
c = 1.0
c_lambda = 1.0
c_mu = 1.0
beta = constant
beta_value = 1.0

[window]
m = 12

[initial]
p = delta:0
l0 = 1.3
m0 = -0.4

[integrator]
method = splitting
dt_init = 0.001
n_samples = 11

[run]
t_final = 1.0
seed = 1
"""


# the window [-3, 3] is too narrow: one sample, at t = 1, with edge mass
NARROW = BASE.replace("m = 12", "m = 3").replace("n_samples = 11", "n_samples = 2")


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def strict_json(path):
    """The JSON file at path, parsed by a reader that refuses NaN,
    Infinity and -Infinity, as strict JSON parsers do."""
    def refuse(name):
        raise ValueError(f"{path.name}: {name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestSimulate:
    def test_success(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == "nlwalk-1"
        assert summary["config"]["model"]["c"] == "1.0"
        assert summary["W_violations"] == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "final_measure.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_summary_reports_steps(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        state0 = SystemState(
            p=LatticeMeasure.delta(0, Window.symmetric(12)), L=1.3, M=-0.4
        )
        log = integrate(
            ModelParams(), state0, 1.0,
            IntegratorConfig(dt_init=0.001, n_samples=11),
        )
        assert log.steps > 0
        assert (summary["steps"], summary["rejected_steps"]) == (
            log.steps, log.rejected_steps
        )

    def test_summary_reports_band(self, tmp_path):
        # the widest band and the largest truncation bound of the run: on
        # [-12, 12] every interval's band is narrower than the window
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = strict_json(out / "summary.json")
        assert 1 <= summary["band_max"] < 25
        assert 0.0 < summary["truncation_max"] <= TRUNC_TOL

    def test_invalid_config_negative_c(self, tmp_path):
        cfg = write_config(tmp_path, BASE.replace("c = 1.0", "c = -1.0"))
        assert main(["simulate", "--config", cfg]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "\nturbo = yes\n")
        assert main(["simulate", "--config", cfg]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_verdict_without_fixed_point(self, tmp_path):
        text = BASE.replace("c_mu = 1.0", "c_mu = 2.0") + "\nverdict = converge\n"
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", cfg]) == 3

    def test_numerical_failure(self, tmp_path, capsys):
        # no step size meets a relative tolerance of 1e-300
        text = BASE.replace("dt_init = 0.001", "dt_init = 0.001\nrel_tol = 1e-300")
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.startswith("error: step ")

    def test_unknown_integrator_method(self, tmp_path, capsys):
        # splitting is the one integrator; the key stays so that configs
        # naming it still load
        for method in ("rk45", "rk4"):
            cfg = write_config(
                tmp_path, BASE.replace("method = splitting", f"method = {method}")
            )
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert "unknown integrator method" in capsys.readouterr().err

    def test_warning_is_one_stderr_line(self, tmp_path):
        # mass reaches the edge of [-3, 3]: the boundary-mass warning is
        # printed as one "warning:" line, without Python's source echo
        cfg = write_config(tmp_path, NARROW)
        env = dict(os.environ, PYTHONPATH=str(Path(nlwalk.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "nlwalk.cli", "simulate", "--config", cfg,
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: boundary mass ")

    def test_warning_stays_visible_to_callers(self, tmp_path, capsys):
        # a caller that records warnings gets the warning itself, and the
        # CLI's formatting is undone when main returns
        cfg = write_config(tmp_path, NARROW)
        formatwarning = warnings.formatwarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert [w.category for w in caught] == [RuntimeWarning]
        assert str(caught[0].message).startswith("boundary mass ")
        assert capsys.readouterr().err == ""
        assert warnings.formatwarning is formatwarning

    @pytest.mark.parametrize("command", ["simulate", "particles"])
    @pytest.mark.parametrize("key", ["l0", "m0"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_barrier(self, tmp_path, capsys, command, key, value):
        line = {"l0": "l0 = 1.3", "m0": "m0 = -0.4"}[key]
        text = BASE.replace(line, f"{key} = {value}") + textwrap.dedent(
            """
            [particles]
            n = 200
            dt = 0.001
            t_final = 0.5
            """
        )
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "replacements, code",
        [
            ({"m0 = -0.4": "m0 = 800"}, 4),
            ({"l0 = 1.3": "l0 = -800"}, 4),
            (
                {
                    "m = 12": "n_min = 710\nsize = 21",
                    "p = delta:0": "p = delta:720",
                    "l0 = 1.3": "l0 = 721.3",
                    "m0 = -0.4": "m0 = 719.6",
                },
                0,
            ),
        ],
        ids=["m0-800", "l0-minus-800", "window-710"],
    )
    def test_barrier_exponent_overflow(self, tmp_path, capsys, replacements, code):
        # e^{-cL} or e^{cM} leaves exp's range; the window's rate factors
        # are taken at its centre, so a window far from 0 is in range
        text = BASE
        for old, new in replacements.items():
            text = text.replace(old, new)
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == code
        assert ("out of range" in capsys.readouterr().err) == (code == 4)


class TestOtherCommands:
    def test_solve_s_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE + "\n[solve]\nk = 0.0\n")
        assert main(["solve-s", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("s*=")
        assert abs(float(out.strip().split("=")[1])) < 1e-10

    def test_fixed_point(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "\n[solve]\ns = 0.0\n")
        out = tmp_path / "o"
        assert main(["fixed-point", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "fixed_point.json").read_text())
        assert payload["d"] == pytest.approx(-0.24979310725444673, rel=1e-10)
        assert (out / "pi.csv").exists()

    def test_kernel_check(self, tmp_path):
        text = BASE.replace("m = 12", "m = 8") + textwrap.dedent(
            """
            [kernel]
            t0 = 0.0
            t1 = 1.0
            substeps = 50
            splits = 0.3, 0.5, 0.8
            k_max = 2,4
            path = constant
            """
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["kernel-check", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "kernel_check.json").read_text())
        assert payload["ck_deviation"] < 1e-8
        assert payload["row_sum_deficit"] < 1e-10
        for entry in payload["dyson"]:
            assert entry["distance"] < entry["remainder_bound"]

    def test_kernel_check_readme_window(self, tmp_path):
        # m = 25: edge rates near 1e11, along the dynamics path
        text = BASE.replace("m = 12", "m = 25") + textwrap.dedent(
            """
            [kernel]
            t0 = 0.0
            t1 = 1.0
            substeps = 50
            splits = 0.2, 0.5, 0.8
            path = dynamics
            """
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["kernel-check", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "kernel_check.json").read_text())
        assert payload["ck_deviation"] < 1e-8
        assert payload["row_sum_deficit"] < 1e-10
        assert payload["min_entry"] >= 0.0

    def test_kernel_check_dyson_on_readme_window(self, tmp_path):
        # dominating rate 2.6e11 over 0.1: the jump-count terms take about
        # 45 doublings, and each partial sum is within its remainder bound
        text = BASE.replace("m = 12", "m = 25") + textwrap.dedent(
            """
            [kernel]
            t0 = 0.0
            t1 = 0.1
            substeps = 10
            k_max = 2, 4, 6
            path = constant
            """
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        start = time.perf_counter()
        assert main(["kernel-check", "--config", cfg, "--out", str(out)]) == 0
        assert time.perf_counter() - start < 10.0
        dyson = json.loads((out / "kernel_check.json").read_text())["dyson"]
        assert [d["k_max"] for d in dyson] == [2, 4, 6]
        for d in dyson:
            assert d["distance"] < d["remainder_bound"]

    def test_kernel_check_bound_past_float_range_is_null(self, tmp_path):
        # over t1 = 1e30 the k_max = 2 remainder bound exceeds the float
        # range: it bounds nothing and is written as null
        text = BASE.replace("m = 12", "m = 25") + textwrap.dedent(
            """
            [kernel]
            t1 = 1e30
            k_max = 2
            path = constant
            """
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["kernel-check", "--config", cfg, "--out", str(out)]) == 0
        [dyson] = strict_json(out / "kernel_check.json")["dyson"]
        assert dyson["remainder_bound"] is None

    def test_sample_paths_reproducible(self, tmp_path):
        text = BASE.replace("m = 12", "m = 8") + textwrap.dedent(
            """
            [paths]
            n_paths = 50
            sample_times = 0.0, 0.5
            path = constant
            """
        )
        cfg = write_config(tmp_path, text)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["sample-paths", "--config", cfg, "--out", str(out)]) == 0
            blobs.append((out / "paths.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_override_changes_output(self, tmp_path):
        text = BASE.replace("m = 12", "m = 8") + textwrap.dedent(
            """
            [paths]
            n_paths = 50
            sample_times = 0.0, 0.5
            path = constant
            """
        )
        cfg = write_config(tmp_path, text)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sample-paths", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(
            ["sample-paths", "--config", cfg, "--seed", "99", "--out", str(out_b)]
        ) == 0
        assert (out_a / "paths.csv").read_bytes() != (out_b / "paths.csv").read_bytes()

    @pytest.mark.parametrize(
        "start, m, messages",
        [
            (720, 730, ["rate exponent out of range on window"]),
            (0, 730, ["rate exponent out of range on window"]),
            (30, 40, ["dominating rate", "at site 30 "]),
        ],
        ids=["720", "0", "30"],
    )
    def test_sample_paths_unsamplable_start(self, tmp_path, capsys, start, m, messages):
        # on [-730, 730] the envelope's rate table leaves exp's range,
        # wherever the paths start; on [-40, 40] the bound at site 30
        # (1.6e13) is finite but beyond what the sampler accepts
        text = BASE.replace("m = 12", f"m = {m}").replace(
            "p = delta:0", f"p = delta:{start}"
        ) + textwrap.dedent(
            """
            [paths]
            n_paths = 5
            sample_times = 0.0, 0.5
            path = constant
            """
        )
        cfg = write_config(tmp_path, text)
        assert main(["sample-paths", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert all(message in err for message in messages)

    def test_particles(self, tmp_path):
        text = BASE + textwrap.dedent(
            """
            [particles]
            n = 200
            dt = 0.001
            t_final = 0.5
            """
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["particles", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "particles.json").read_text())
        assert payload["n"] == 200
        assert payload["steps"] == 500
        # the start alone has (lambda_0 + mu_0) dt = (e^1.3 + e^0.4) * 1e-3
        assert 5.1e-3 < payload["max_rate_dt"] <= 0.1
        assert 1 <= payload["band_max"] <= 25
        assert (out / "particles.csv").exists()

    def test_particles_rate_overflow(self, tmp_path, capsys):
        # l0 = 690 on [-25, 25]: -c(n_min - L) = 715 > 700
        text = BASE.replace("m = 12", "m = 25").replace("l0 = 1.3", "l0 = 690")
        text += "\n[particles]\nn = 200\ndt = 0.001\nt_final = 0.5\n"
        cfg = write_config(tmp_path, text)
        assert main(["particles", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "out of range" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", "0"),
            ("n", "-5"),
            ("dt", "0"),
            ("dt", "nan"),
            ("t_final", "-1.0"),
            ("t_final", "inf"),
            ("n_samples", "0"),
            ("n_samples", "1"),
        ],
    )
    def test_particles_invalid_input(self, tmp_path, capsys, key, value):
        settings = {"n": "200", "dt": "0.001", "t_final": "0.5", "n_samples": "11"}
        settings[key] = value
        lines = "".join(f"{k} = {v}\n" for k, v in settings.items())
        text = BASE + "\n[particles]\n" + lines
        cfg = write_config(tmp_path, text)
        assert main(["particles", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    def test_diagnose_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
        diag_cfg = write_config(
            tmp_path,
            f"[diagnose]\ninput = {sim_out / 'trajectory.csv'}\n",
            name="diag.ini",
        )
        out = tmp_path / "diag"
        assert main(["diagnose", "--config", diag_cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "diagnose.json").read_text())
        assert payload["W_violations"] == 0
        assert payload["verdict"] == "monotone"

    def test_diagnose_counts_W_increases(self, tmp_path):
        # raise W in two rows to 1e-6 and 1e-3 above the row before:
        # diagnose and monitor must both count 2 and give the larger rise
        cfg = write_config(tmp_path, BASE)
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
        traj = sim_out / "trajectory.csv"
        with traj.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        W = [float(r["W"]) for r in rows]
        for k, rise in ((3, 1e-6), (7, 1e-3)):
            W[k] = W[k - 1] + rise
            rows[k]["W"] = repr(W[k])
        with traj.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        largest = W[7] - W[6]
        assert largest == pytest.approx(1e-3, rel=1e-9)

        diag_cfg = write_config(
            tmp_path, f"[diagnose]\ninput = {traj}\n", name="diag.ini"
        )
        out = tmp_path / "diag"
        assert main(["diagnose", "--config", diag_cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "diagnose.json").read_text())
        assert payload["W_violations"] == 2
        assert payload["max_violation"] == largest
        assert payload["verdict"] == "violations"

        state0 = SystemState(
            p=LatticeMeasure.delta(0, Window.symmetric(12)), L=1.3, M=-0.4
        )
        log = annotate(
            ModelParams(),
            integrate(
                ModelParams(), state0, 1.0,
                IntegratorConfig(dt_init=0.001, n_samples=11),
            ),
        )
        assert len(log.samples) == len(W)
        for smp, w in zip(log.samples, W):
            smp.W = w
        report = monitor(log)
        assert report.violations == 2
        assert report.max_violation == largest

    def test_diagnose_rejects_nan_W(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
        traj = sim_out / "trajectory.csv"
        with traj.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[4]["W"] = "nan"
        with traj.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        diag_cfg = write_config(
            tmp_path, f"[diagnose]\ninput = {traj}\n", name="diag.ini"
        )
        out = tmp_path / "diag"
        assert main(["diagnose", "--config", diag_cfg, "--out", str(out)]) == 0
        payload = strict_json(out / "diagnose.json")
        assert payload["series"][4]["W"] is None
        assert payload["W_violations"] >= 1
        assert payload["verdict"] == "violations"


# every section a command below reads, with valid values
SECTIONS = BASE.replace("m = 12", "m = 8") + """
[paths]
n_paths = 5
sample_times = 0.0, 0.5
path = constant

[kernel]
t0 = 0.0
t1 = 0.1
substeps = 10
path = constant

[solve]
s = 0.0
k = 0.0
"""


BAD_INPUTS = [
    ("sample-paths", "paths", {"sample_times": "1.0, 0.5"}),
    ("sample-paths", "paths", {"sample_times": "0.0, x"}),
    ("sample-paths", "paths", {"sample_times": "0.0, inf"}),
    ("sample-paths", "paths", {"n_paths": "-3"}),
    ("kernel-check", "kernel", {"t0": "1", "t1": "0.5"}),
    ("kernel-check", "kernel", {"substeps": "0"}),
    ("kernel-check", "kernel", {"k_max": "-1"}),
    ("kernel-check", "kernel", {"splits": "abc"}),
    ("fixed-point", "solve", {"s": "nan"}),
    ("solve-s", "solve", {"k": "inf"}),
    ("simulate", "run", {"t_final": "-1"}),
    ("simulate", "run", {"t_final": "nan"}),
    ("simulate", "run", {"t_final": "inf"}),
    ("simulate", "integrator", {"n_samples": "1"}),
]


@pytest.mark.parametrize(
    "command, section, values",
    BAD_INPUTS,
    ids=[
        "-".join([command, *(f"{k}={v}".replace(" ", "") for k, v in values.items())])
        for command, _, values in BAD_INPUTS
    ],
)
def test_bad_input_exits_2(tmp_path, capsys, command, section, values):
    # an invalid or non-finite input value is a config error, never a
    # traceback or a run that writes NaN or infinite times; a list entry
    # that does not parse is reported with its key
    parser = configparser.ConfigParser()
    parser.read_string(SECTIONS)
    parser.read_dict({section: values})
    cfg = tmp_path / "bad.ini"
    with cfg.open("w") as fh:
        parser.write(fh)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if values in ({"sample_times": "0.0, x"}, {"splits": "abc"}, {"k_max": "-1"}):
        assert f"[{section}] {next(iter(values))}" in err


README_CONFIG = re.search(
    r"```ini\n(.*?)```",
    (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8"),
    re.S,
).group(1)

COMMANDS = ("simulate", "fixed-point", "solve-s", "kernel-check",
            "sample-paths", "particles", "diagnose")


def test_every_command_runs_on_the_readme_config(tmp_path):
    # the session README shows: diagnose reads <out>/trajectory.csv, and
    # solve-s and fixed-point default to the K0 of [initial]
    cfg = write_config(tmp_path, README_CONFIG, "bench.ini")
    out = tmp_path / "out"
    for command in COMMANDS:
        assert main([command, "--config", cfg, "--out", str(out)]) == 0, command
    K0 = 1.3 - 0.4
    assert json.loads((out / "solve_s.json").read_text())["K"] == K0
    s_star = json.loads((out / "summary.json").read_text())["s_star"]
    assert json.loads((out / "fixed_point.json").read_text())["s"] == s_star
    assert json.loads((out / "diagnose.json").read_text())["W_violations"] == 0


# The README config at tiny sizes, for the fuzz below.
FUZZ_BASE = README_CONFIG.replace("t_final = 20.0", "t_final = 0.2").replace(
    "n_samples = 201", "n_samples = 5"
) + textwrap.dedent(
    """
    [particles]
    n = 100
    dt = 0.01
    t_final = 0.1
    n_samples = 3

    [paths]
    n_paths = 20
    sample_times = 0.0, 0.1
    path = constant

    [kernel]
    t0 = 0.0
    t1 = 0.1
    substeps = 2
    k_max = 2
    path = constant
    """
)
# Every value a key can be given: invalid, degenerate or extreme.  The
# huge integer is past int64, so no size built from it can be allocated.
# A huge run length is a valid request for a long run, so the t_final keys
# take no huge value.
HUGE = ("1e300", "1" + "0" * 30)
FUZZ_VALUES = ("-1", "-1e-3", "0", "nan", "inf", "-inf", "x", "") + HUGE
RUN_LENGTH_KEYS = {("run", "t_final"), ("particles", "t_final")}


def _fuzz_parser():
    parser = configparser.ConfigParser()
    parser.read_string(FUZZ_BASE)
    return parser


@st.composite
def fuzzed_configs(draw):
    parser = _fuzz_parser()
    keys = [(s, k) for s in parser.sections() for k in parser[s]]
    for section, key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3)):
        values = [v for v in FUZZ_VALUES
                  if not (v in HUGE and (section, key) in RUN_LENGTH_KEYS)]
        parser[section][key] = draw(st.sampled_from(values))
    for section in draw(st.lists(st.sampled_from(parser.sections()), max_size=2)):
        parser.remove_section(section)
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=fuzzed_configs())
def test_fuzzed_configs_exit_with_documented_codes(tmp_path, text):
    # whatever a config holds, a command exits 0, 2, 3 or 4, and its stderr
    # is empty or one "error:" line: no traceback, no printed warning
    cfg = write_config(tmp_path, text, "fuzz.ini")
    for command in ("simulate", "particles", "solve-s", "fixed-point", "sample-paths",
                    "kernel-check", "diagnose"):
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        assert code in (0, 2, 3, 4), (command, code, text)
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), (
            command, lines, text)
