"""Tests of the benchmark itself: pinned layer counts and the output checks.

    python3 -m pytest perfbench

The counts are the ROADMAP anchors; a change that moves one of them changes
what the benchmark measures and must show up here.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from child import layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def traced_run(wl, op, tracer):
    wl.prepare(op)
    tracer.enabled = True
    try:
        rc = wl.run(op)
    finally:
        tracer.enabled = False
    assert rc == 0
    assert wl.check(op)


@pytest.mark.parametrize("beta, traversals", [(0.3, 281), (0.1, 2521), (0.03, 26796)])
def test_grandfather_traversals_match_the_anchors(tmp_path, tracer, beta, traversals):
    wl = workloads.Oracle(seed=7, workdir=str(tmp_path))
    ops = [op for op in wl.ops if op.label == f"gf-beta{beta:g}"]
    assert ops
    for op in ops:
        before = tracer.counts["oracle.traversals"]
        traced_run(wl, op, tracer)
        assert tracer.counts["oracle.traversals"] - before == traversals


def test_scan_op_solves_4001_points(tmp_path, tracer):
    wl = workloads.Scan(seed=7, workdir=str(tmp_path))
    op = wl.ops[0]
    traced_run(wl, op, tracer)
    metrics = layer_metrics(tracer.snapshot(), ops=1, verify_ns=0, output_bytes=0)
    assert metrics["scenarios.points"] == workloads.SCAN_POINTS == 4001
    assert metrics["network.solve_calls"] == 4001
    assert metrics["scenarios.phase_scan_ms"] > 0.0


def test_tracer_uninstall_restores_every_binding(tracer):
    import qtimeloop
    from qtimeloop import cli, network, scenarios

    assert hasattr(cli.main, "__wrapped__")
    assert scenarios.solve_closed_form is network.solve_closed_form
    tracer.uninstall()
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(qtimeloop.solve_closed_form, "__wrapped__")
    assert not hasattr(network.FeedbackNetwork.__init__, "__wrapped__")


def test_scan_check_rejects_a_wrong_row(tmp_path):
    wl = workloads.Scan(seed=7, workdir=str(tmp_path))
    op = wl.ops[0]
    wl.prepare(op)
    assert wl.run(op) == 0 and wl.check(op)
    csv_path = op.outputs[0]
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    phi, transmitted, analytic, _ = lines[100].split(",")
    lines[100] = ",".join([phi, repr(float(transmitted) + 1e-6), analytic, "0.0"])
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert not wl.check(op)


def test_dense_check_rejects_a_changed_record(tmp_path):
    wl = workloads.Dense(seed=7, workdir=str(tmp_path))
    wl.ops = [op for op in wl.ops if op.label.startswith("d4-")]
    wl.warm_up()
    for op in wl.ops:
        wl.prepare(op)
        assert wl.run(op) == 0 and wl.check(op)
    op = next(op for op in wl.ops if op.data["fmt"] == "json")
    with open(op.outputs[0], encoding="utf-8") as fh:
        record = json.load(fh)
    record["solution"]["psi3_prime"][0]["re"] += 1e-6
    text = json.dumps(record, indent=2) + "\n"
    with open(op.outputs[0], "w", encoding="utf-8") as fh:
        fh.write(text)
    op.data["reference"] = text.encode("utf-8")  # pass the byte check, fail the physics
    assert not wl.check(op)


def test_oracle_check_rejects_a_large_difference(tmp_path):
    wl = workloads.Oracle(seed=7, workdir=str(tmp_path))
    op = next(op for op in wl.ops if op.label == "gf-beta0.3")
    wl.prepare(op)
    assert wl.run(op) == 0 and wl.check(op)
    with open(op.outputs[0], encoding="utf-8") as fh:
        record = json.load(fh)
    record["oracle"]["relative_difference"] = 1e-6
    with open(op.outputs[0], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    assert not wl.check(op)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_loops_cycle_is_the_scan_and_oracle_cycles(tmp_path):
    (tmp_path / "scan").mkdir()
    (tmp_path / "oracle").mkdir()
    wl = workloads.Loops(seed=7, workdir=str(tmp_path))
    scan = workloads.Scan(seed=7, workdir=str(tmp_path / "scan"))
    oracle = workloads.Oracle(seed=7, workdir=str(tmp_path / "oracle"))
    assert sorted(op.label for op in wl.ops) == sorted(
        op.label for op in scan.ops + oracle.ops
    )
    for label in ("scan-beta0.3", "gf-beta0.3"):
        op = next(op for op in wl.ops if op.label == label)
        wl.prepare(op)
        assert wl.run(op) == 0 and wl.check(op)
