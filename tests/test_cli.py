import configparser
import csv
import json
import textwrap
import time

import pytest

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


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


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
            IntegratorConfig(method="splitting", dt_init=0.001, n_samples=11),
        )
        assert log.steps > 0
        assert (summary["steps"], summary["rejected_steps"]) == (
            log.steps, log.rejected_steps
        )

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

    def test_numerical_failure(self, tmp_path):
        # explicit RK on the wide window is rejected by the stability guard
        text = BASE.replace("m = 12", "m = 25").replace(
            "method = splitting", "method = rk4"
        )
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    def test_unknown_integrator_method(self, tmp_path, capsys):
        # the integrators are splitting and rk4; rk45 is not one of them
        cfg = write_config(tmp_path, BASE.replace("method = splitting", "method = rk45"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown integrator method" in capsys.readouterr().err

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
        "replacements",
        [
            {"m0 = -0.4": "m0 = 800"},
            {"l0 = 1.3": "l0 = -800"},
            {
                "m = 12": "n_min = 710\nsize = 21",
                "p = delta:0": "p = delta:720",
                "l0 = 1.3": "l0 = 721.3",
                "m0 = -0.4": "m0 = 719.6",
            },
        ],
        ids=["m0-800", "l0-minus-800", "window-710"],
    )
    def test_barrier_exponent_overflow(self, tmp_path, capsys, replacements):
        # e^{-cL}, e^{cM} or the window's rate factors leave exp's range
        text = BASE
        for old, new in replacements.items():
            text = text.replace(old, new)
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert "out of range" in capsys.readouterr().err


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

    def test_kernel_check_dyson_refuses_readme_window(self, tmp_path, capsys):
        # the jump-count series would run about 2.6e10 Poisson terms here
        # (dominating rate 2.6e11 over 0.1); it must refuse up front
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
        start = time.perf_counter()
        assert main(["kernel-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert time.perf_counter() - start < 10.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dyson_series" in err
        assert "Traceback" not in err

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
        assert (out / "particles.csv").exists()

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
                IntegratorConfig(method="splitting", dt_init=0.001, n_samples=11),
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
        payload = json.loads((out / "diagnose.json").read_text())
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
