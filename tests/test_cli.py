import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qtimeloop import __version__
from qtimeloop.cli import main
from qtimeloop.config import load_config, parse_config
from qtimeloop.linalg import random_unitary
from qtimeloop.network import solve_closed_form
from qtimeloop.records import build_run_record, csv_pieces, record_to_json


def json_to_vector(items):
    return np.array([complex(item["re"], item["im"]) for item in items])


def write_config(tmp_path, name="net.json", **overrides):
    cfg = {
        "dim": 1,
        "g1": "zero",
        "g2": "phase:0.0",
        "m": "phase:0.0",
        "beta": 0.1,
        "input_state": "basis:0",
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------- solve

def test_solve_no_feedback_record_matches_forward_channel(tmp_path):
    cfg = write_config(
        tmp_path,
        dim=3,
        g1="random-unitary:5",
        g2="random-unitary:6",
        m="random-unitary:7",
        input_state="basis:1",
    )
    cfg_data = json.loads(cfg.read_text())
    del cfg_data["beta"]
    cfg_data["alpha"] = 1.0
    cfg.write_text(json.dumps(cfg_data))
    out = tmp_path / "record.json"
    assert main(["solve", str(cfg), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    psi3p = json_to_vector(record["solution"]["psi3_prime"])
    g1 = random_unitary(3, 5)
    psi = np.array([0.0, 1.0, 0.0], dtype=complex)
    np.testing.assert_allclose(psi3p, g1 @ psi, atol=1e-12)
    assert record["config"]["alpha"] == 1.0


def test_solve_grandfather_with_oracle(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "record.json"
    assert main(["solve", str(cfg), "--oracle", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["transmitted_probability"] == pytest.approx(1.0, abs=1e-10)
    assert record["oracle"]["relative_difference"] <= 1e-8
    assert record["oracle"]["iterations"] > 0
    assert record["conservation_residual_t1"] <= 1e-11
    assert record["conservation_residual_t2"] <= 1e-11


def test_solve_csv_format(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["solve", str(cfg), "--format", "csv", "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("quantity,component,re,im\n")
    assert "transmitted_probability" in out


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_records_an_overflowed_conservation_residual_as_inf(dim, tmp_path, capsys):
    # |psi1'|^2 and |psi3'|^2 leave the float range: the late balance is inf - inf
    g1 = [[{"re": 1e160, "im": 1e160}, 0.0], [0.0, 1.0]]
    cfg = write_config(tmp_path, dim=dim, g1=[row[:dim] for row in g1[:dim]], g2="identity",
                       m="zero", beta=0.5)
    out = tmp_path / "record.json"
    assert main(["solve", str(cfg), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["conservation_residual_t2"] == math.inf
    assert main(["solve", str(cfg), "--format", "csv", "--no-timestamp"]) == 0
    text = capsys.readouterr().out
    assert "conservation_residual_t2" in text
    assert "nan" not in text.lower()


def test_solve_malformed_shape_exits_1_without_output(tmp_path, capsys):
    cfg = write_config(tmp_path, g1=[[1.0, 0.0], [0.0, 1.0]])  # 2x2 literal for dim 1
    out = tmp_path / "never.json"
    assert main(["solve", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_solve_missing_config_exits_1(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_solve_non_utf8_config_exits_1_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dim": 1, "g1": "caf\xe9"}')
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config {path} is not valid UTF-8: ")


def test_solve_non_finite_literal_exits_1_naming_the_entry(tmp_path, capsys):
    # json.dumps writes the bare NaN token that json.load accepts
    cfg = write_config(tmp_path, g2=[[{"re": 1.0, "im": math.nan}]])
    assert "NaN" in cfg.read_text()
    out = tmp_path / "record.json"
    assert main(["solve", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: g2[0][0]: entries must be finite\n"
    assert not out.exists()


def test_solve_singular_denominator_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "singular.json"
    cfg_path.write_text(json.dumps({
        "dim": 1,
        "g1": "identity",
        "g2": "identity",
        "m": "identity",
        "alpha": 1.0,
        "input_state": "basis:0",
    }))
    assert main(["solve", str(cfg_path)]) == 2
    assert "singular" in capsys.readouterr().err.lower()


def test_solve_divergent_oracle_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "divergent.json"
    cfg_path.write_text(json.dumps({
        "dim": 1,
        "g1": "zero",
        "g2": [[{"re": 2.0, "im": 0.0}]],
        "m": "identity",
        "beta": 0.1,
        "input_state": "basis:0",
    }))
    with pytest.warns(RuntimeWarning):
        code = main(["solve", str(cfg_path), "--oracle", "--max-iter", "50"])
    assert code == 3
    assert "convergence" in capsys.readouterr().err


def test_not_converged_message_tells_a_near_unit_radius_from_one(tmp_path, capsys):
    # grandfather at beta=0.003: the loop radius is alpha^2 = 0.999991
    cfg = write_config(tmp_path, g2="phase:-1.3", m="phase:1.3", beta=0.003)
    assert main(["solve", str(cfg), "--oracle", "--max-iter", "50"]) == 3
    assert "1 - radius 9e-06" in capsys.readouterr().err


def test_not_converged_stderr_is_one_line_from_the_oracle(tmp_path, capsys):
    cfg = write_config(tmp_path, g2="phase:-1.3", m="phase:1.3", beta=0.003)
    assert main(["solve", str(cfg), "--oracle", "--max-iter", "50"]) == 3
    assert capsys.readouterr().err == (
        "error: no convergence after 50 iterations (last update 2.999e-03) "
        "[loop spectral radius 1, 1 - radius 9e-06]\n"
    )


def test_expanding_loop_stderr_is_one_warning_line_and_one_error_line(tmp_path):
    # a subprocess, so the warning reaches stderr as a user sees it, not pytest's recorder
    cfg = write_config(tmp_path, g2="identity", m=[[{"re": 3.0, "im": 0.0}]], beta=0.5)
    proc = subprocess.run(
        [sys.executable, "-m", "qtimeloop", "solve", str(cfg), "--oracle", "--max-iter", "50"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "warning: loop spectral radius 2.25 >= 1 (1 - radius = -1.25); "
        "iteration may not converge\n"
        "error: no convergence after 50 iterations (last update 2.347e+17) "
        "[loop spectral radius 2.25, 1 - radius -1.25]\n"
    )


def test_expanding_matrix_loop_stderr_has_no_numpy_overflow_warnings(tmp_path):
    # d=2, so the oracle steps with matmul; its iterate overflows before the update is tested
    m = [[{"re": 1e3, "im": 0.0}, {"re": 0.0, "im": 1e3}],
         [{"re": -1e3, "im": 0.0}, {"re": 1e3, "im": -1e3}]]
    cfg = write_config(tmp_path, dim=2, g2="identity", m=m, beta=0.5)
    proc = subprocess.run(
        [sys.executable, "-m", "qtimeloop", "solve", str(cfg), "--oracle"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "warning: loop spectral radius 1561 >= 1 (1 - radius = -1.56e+03); "
        "iteration may not converge\n"
        "error: no convergence after 97 iterations (last update nan) "
        "[loop spectral radius 1561, 1 - radius -1.56e+03]\n"
    )


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_solve_oracle_rejects_a_tolerance_that_checks_nothing(tol, tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "record.json"
    assert main(["solve", str(cfg), "--oracle", "--tol", tol, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: tol must be finite and non-negative\n"
    assert not out.exists()


def test_consecutive_main_calls_share_no_state(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "record.json"
    assert main(["solve", str(cfg), "--oracle", "--format", "csv", "--out", str(out)]) == 0
    assert main(["solve", str(cfg), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert "oracle" not in record
    assert "timestamp" in record


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["--version"], 0), (["solve", "--help"], 0), (["solve"], 1), ([], 1)],
)
def test_help_and_usage_errors_exit_the_same_on_every_call(argv, code, capsys):
    for _ in range(2):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert ("usage:" in captured.out + captured.err) == (argv != ["--version"])


@pytest.mark.parametrize("argv, option, value", [
    (["scan", "--beta", "0.3", "--points", "5"], "--theta", "-1e-3"),
    (["scan", "--beta", "0.3", "--points", "5"], "--phi-min", "-1e-139"),
    (["scenario", "grandfather"], "--phi", "-2e-3"),
])
def test_negative_option_values_with_an_exponent_read_as_values(argv, option, value, capsys):
    assert main([*argv, f"{option}={value}"]) == 0
    expected = capsys.readouterr().out
    assert main([*argv, option, value]) == 0
    assert capsys.readouterr().out == expected


def test_solve_deterministic_output(tmp_path):
    cfg = write_config(tmp_path, g1="random-unitary:3", dim=2, g2="random-unitary:4",
                       m="random-unitary:5", input_state="basis:0")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["solve", str(cfg), "--no-timestamp", "--oracle", "--out", str(out_a)]) == 0
    assert main(["solve", str(cfg), "--no-timestamp", "--oracle", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_solve_timestamp_isolated_to_dedicated_field(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "stamped.json"
    assert main(["solve", str(cfg), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert "timestamp" in record
    assert main(["solve", str(cfg), "--no-timestamp", "--out", str(out)]) == 0
    assert "timestamp" not in json.loads(out.read_text())


# ---------------------------------------------------------------- scenario

@pytest.mark.parametrize("name", ["no-feedback", "full-feedback", "equal-paths"])
def test_scenario_special_cases_pass(name, capsys):
    assert main(["scenario", name, "--seed", "7"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_scenario_grandfather_reports_ratios(tmp_path, capsys):
    out = tmp_path / "gf.json"
    assert main(["scenario", "grandfather", "--beta", "0.1", "--phi", "0",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["ratios"][1] == pytest.approx(10.0, abs=1e-9)
    assert payload["transmitted"] == pytest.approx(1.0, abs=1e-10)


def test_scenario_undo_passes(capsys):
    assert main(["scenario", "undo", "--seed", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_scenario_perturbative_passes(capsys):
    assert main(["scenario", "perturbative", "--seed", "11"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.xfail(strict=True, reason=(
    "the Richardson estimate's O(gamma^2) truncation near resonance, |1 - m g2| = 0.051: "
    "residual 2.3e-06 against the fixed tol 1e-06 at seed 0, dim 1"))
def test_scenario_perturbative_passes_at_dim_1():
    assert main(["scenario", "perturbative", "--dim", "1"]) == 0


def test_scenario_unknown_name_exits_1(capsys):
    assert main(["scenario", "time-machine"]) == 1


@pytest.mark.parametrize("name, argv", [
    ("no-feedback", ["--beta", "0.3", "--gamma", "0.001"]),
    ("grandfather", ["--seed", "1"]),
    ("undo", ["--phi", "0.1"]),
    ("perturbative", ["--beta", "0.1"]),  # even at its default value
])
def test_scenario_rejects_options_the_case_does_not_take(name, argv, tmp_path, capsys):
    out = tmp_path / "record.json"
    assert main(["scenario", name, *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"scenario {name} does not take {argv[0]}" in captured.err


def test_scenario_bad_beta_exits_1(capsys):
    assert main(["scenario", "grandfather", "--beta", "1.5"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scan", "--beta", "1e-90", "--points", "4"],
    ["scenario", "grandfather", "--beta", "1e-90", "--phi", "0.1"],
])
def test_beta_below_the_lineshape_range_exits_1(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: beta 1e-90 is below 1e-75, out of the lineshape's range\n"


# ---------------------------------------------------------------- scan

def test_scan_csv_contents_and_footer(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--beta", "0.3", "--points", "4001", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "phi,transmitted,analytic,abs_error"
    data = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert len(data) == 4001
    assert max(abs(float(row[3])) for row in data) <= 1e-12
    footer = [line for line in lines if line.startswith("#")]
    numeric = float(footer[0].split("=")[1])
    predicted = float(footer[1].split("=")[1])
    assert numeric == pytest.approx(2 * 0.09 / math.sqrt(0.91), rel=0.01)
    assert predicted == pytest.approx(2 * 0.09 / math.sqrt(0.91), rel=1e-12)
    assert not any("out of small-beta regime" in line for line in footer)


def test_scan_broad_coupler_flags_width_formula(tmp_path):
    out = tmp_path / "scan9.csv"
    assert main(["scan", "--beta", "0.9", "--points", "2001", "--out", str(out)]) == 0
    assert "# width formula out of small-beta regime" in out.read_text()


def test_scan_degenerate_range_exits_1(capsys):
    assert main(["scan", "--beta", "0.5", "--phi-min", "0", "--phi-max", "0"]) == 1
    assert "invalid range" in capsys.readouterr().err


def test_scan_non_finite_range_exits_1(capsys):
    assert main(["scan", "--beta", "0.5", "--phi-min", "nan"]) == 1
    assert "invalid range" in capsys.readouterr().err


def test_scan_window_wider_than_the_float_range_exits_1_with_one_error_line():
    # a subprocess, so a numpy warning would reach stderr as a user sees it
    proc = subprocess.run(
        [sys.executable, "-m", "qtimeloop", "scan", "--beta", "0.3",
         "--phi-min=-1e308", "--phi-max=1e308", "--points", "11"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: theta and phi must be finite\n"


def test_scan_too_few_points_exits_1(capsys):
    assert main(["scan", "--beta", "0.5", "--points", "2"]) == 1


def test_scan_unwritable_path_exits_1(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "scan.csv"
    assert main(["scan", "--beta", "0.5", "--points", "11", "--out", str(target)]) == 1


def test_scan_svg_output(tmp_path):
    out = tmp_path / "scan.csv"
    svg = tmp_path / "scan.svg"
    assert main(["scan", "--beta", "0.3", "--points", "101",
                 "--out", str(out), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert 'viewBox="0 0 800 600"' in text
    assert "<polyline" in text
    assert text.count("<line") >= 10  # axis ticks on both axes


def test_scan_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    for out, svg in ((out_a, svg_a), (out_b, svg_b)):
        assert main(["scan", "--beta", "0.2", "--points", "301",
                     "--out", str(out), "--svg", str(svg)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert svg_a.read_bytes() == svg_b.read_bytes()


# ---------------------------------------------------------------- streamed output

def write_d64_literal_config(tmp_path):
    rng = np.random.default_rng(64)

    def literal(*shape):
        parts = rng.standard_normal((*shape, 2)).tolist()
        if len(shape) == 1:
            return [{"re": re, "im": im} for re, im in parts]
        return [[{"re": re, "im": im} for re, im in row] for row in parts]

    return write_config(tmp_path, "d64.json", dim=64, g1=literal(64, 64), g2=literal(64, 64),
                        m=literal(64, 64), beta=0.3, input_state=literal(64))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("dim", [64, 1])
def test_solve_writes_the_rendered_record_to_stdout_and_out(dim, fmt, tmp_path, capsysbinary):
    if dim == 64:
        cfg = write_d64_literal_config(tmp_path)
    else:
        cfg = write_config(tmp_path, g1="random-unitary:3", g2="random-unitary:4",
                           m="phase:0.7", beta=0.4)
    raw = load_config(cfg)
    record = build_run_record(raw, solve_closed_form(*parse_config(raw)), version=__version__)
    if fmt == "json":
        expected = record_to_json(record).encode()
        assert expected == (json.dumps(record, indent=2) + "\n").encode()
    else:
        expected = "".join(csv_pieces(record)).encode()
    out = tmp_path / f"record.{fmt}"
    argv = ["solve", str(cfg), "--no-timestamp", "--format", fmt]
    assert main([*argv, "--out", str(out)]) == 0
    assert main(argv) == 0
    assert out.read_bytes() == expected
    assert capsysbinary.readouterr().out == expected


def test_scan_writes_the_same_csv_to_stdout_and_out(tmp_path, capsysbinary):
    out = tmp_path / "scan.csv"
    argv = ["scan", "--beta", "0.3", "--theta", "0.7", "--points", "4001"]
    assert main([*argv, "--out", str(out)]) == 0
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_solve_never_holds_the_record_text(tmp_path):
    """At d=64 the config echo is most of a 1.2 MB record: writing it piece by
    piece keeps the traced peak of a solve near that of reading the config."""
    cfg = write_d64_literal_config(tmp_path)
    argv = ["solve", str(cfg), "--no-timestamp", "--out", str(tmp_path / "record.json")]
    assert main(argv) == 0  # first-call costs out of the way

    def traced_peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    load_peak = min(traced_peak(lambda: load_config(cfg)) for _ in range(2))
    solve_peak = min(traced_peak(lambda: main(argv)) for _ in range(2))
    assert solve_peak <= 1.25 * load_peak


# ---------------------------------------------------------------- entry point

def test_module_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "qtimeloop", "solve", str(cfg), "--no-timestamp"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["tool"] == "qtimeloop"
