"""Run one qtimeloop benchmark workload and print its metrics.

    python3 perfbench/run.py --workload loops --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, no install needed. Workloads: loops, dense (see README.md). Each
is a single closed-loop caller; BLAS threads are left at the user's default.

The second-to-last line of output is a JSON object with the run's details
(seed, machine facts, sample counts, error rate, median op latency overall
and per op group, p90 where there are at least 100 ops). The last line is
the result: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics for --trace 0 and the per-layer metrics from a traced run
for --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("loops", "dense")

SETUP_RUNS = 5  # fresh interpreters per run; setup_s is their median
CHILD_TIMEOUT_S = 150
P90_MIN_OPS = 100

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.import_s": "s",
    "trace.overhead_ops_per_s": "1/s",
    "oracle.converged_ratio": "ratio",
}


def _layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class Child:
    """A workload process; ``setup_s`` runs from launch until it is ready."""

    def __init__(self, argv: list[str], env: dict | None = None):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, *argv],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError(f"workload process did not start: {line!r}")

    def finish(self) -> dict | None:
        """Wait for the process; return its summary line, if it printed one."""
        try:
            out, _ = self.proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"workload process exited {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def _child_args(args, workdir: str, seconds: float | None = None, trace: int = 0) -> list[str]:
    return [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds if seconds is None else seconds),
        "--trace", str(trace),
        "--workdir", workdir,
    ]


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _label_p50_ms(by_label: dict[str, list[float]]) -> dict[str, float]:
    return {label: statistics.median(v) * 1e3 for label, v in by_label.items()}


def run(args, workdir: str) -> tuple[dict, dict]:
    setups = []
    if not args.trace:
        for i in range(SETUP_RUNS - 1):
            setup_dir = os.path.join(workdir, f"setup{i}")
            os.makedirs(setup_dir)
            child = Child([*_child_args(args, setup_dir), "--setup-only"])
            child.finish()
            setups.append(child.setup_s)
    main_dir = os.path.join(workdir, "main")
    os.makedirs(main_dir)
    child = Child(_child_args(args, main_dir, trace=args.trace))
    summary = child.finish()
    setups.append(child.setup_s)

    durations = summary["durations"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller",
        "machine": summary["machine"],
        "ops": len(durations),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "error_rate": summary["failed"] / summary["attempted"],
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_p90_ms": (
            _percentile(durations, 90) * 1e3 if len(durations) >= P90_MIN_OPS else None
        ),
        "op_p50_ms_by_label": _label_p50_ms(summary["by_label"]),
        "setup_runs_s": setups,
        "import_s": summary["import_s"],
    }
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(durations) / sum(durations),
            "peak_rss_mb": summary["peak_rss_kb"] / 1024,
        }
        units = END_TO_END_UNITS
    else:
        metrics = dict(summary["layers"])
        metrics["dense.blas1_op_p50_ms"] = 0.0
        if args.workload == "dense":
            # single-threaded BLAS reference pass, as an HPC baseline
            blas1_dir = os.path.join(workdir, "blas1")
            os.makedirs(blas1_dir)
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
            ref = Child(_child_args(args, blas1_dir, seconds=args.seconds / 3), env=env).finish()
            metrics["dense.blas1_op_p50_ms"] = statistics.median(ref["durations"]) * 1e3
            details["blas1_op_p50_ms_by_label"] = _label_p50_ms(ref["by_label"])
            details["blas1_machine"] = ref["machine"]
        details["traced_ops"] = len(summary["traced_durations"])
        for key in ("probe_exit", "probe_traversals"):
            if key in summary:
                details[key] = summary[key]
        units = {name: _layer_unit(name) for name in metrics}
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    return details, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "qtimeloop", "__init__.py")):
        print(f"error: no qtimeloop sources under {ROOT}/src", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        details, result = run(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only when no other run is using it
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
