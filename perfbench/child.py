"""One workload process: set up, warm up, run the closed loop, report.

    python child.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR [--setup-only]

Started by run.py in a fresh interpreter. It prints ``ready`` once the
package is imported and the seeded inputs are written (the end of set-up),
then warms up, runs whole op cycles until the ops have taken S seconds, and
prints one JSON summary line. With --trace 1 the first half of the time runs
untraced and the second half traced, so the tracing overhead comes from one
process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def blas_threads() -> dict[str, int]:
    """Threads in effect for each OpenBLAS library mapped into this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return threads


def machine_facts() -> dict:
    import platform

    import numpy
    import scipy

    def blas_build(module) -> str:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_build(numpy),
        "scipy_blas": blas_build(scipy),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def closed_loop(wl, seconds: float, tracer=None) -> tuple[list[float], int, dict]:
    """One caller, next op sent when the last returns; whole cycles until the
    ops have been busy for ``seconds``. Returns (op seconds, failed ops,
    seconds per op label)."""
    durations: list[float] = []
    by_label: dict[str, list[float]] = {}
    failed = 0
    busy = 0.0
    while busy < seconds:
        for op in wl.ops:
            wl.prepare(op)
            rc = None
            if tracer is not None:
                tracer.enabled = True
            start = time.perf_counter()
            try:
                rc = wl.run(op)
            except Exception:
                traceback.print_exc()
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.enabled = False
            durations.append(elapsed)
            by_label.setdefault(op.label, []).append(elapsed)
            busy += elapsed
            try:
                ok = rc == 0 and wl.check(op)
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                print(f"failed op {op.label}: exit {rc}", file=sys.stderr)
                failed += 1
    return durations, failed, by_label


def layer_metrics(trace: dict, ops: int, verify_ns: int, output_bytes: int) -> dict:
    """Per-op self times (ms) and counts from the traced half."""
    self_ns, calls, counts = trace["self_ns"], trace["calls"], trace["counts"]

    def ms(*prefixes: str) -> float:
        total = sum(v for k, v in self_ns.items() if k.startswith(prefixes))
        return total / ops / 1e6

    def per_op(value: float) -> float:
        return value / ops

    oracle_calls = counts.get("oracle.calls", 0)
    return {
        "cli.self_ms": ms("cli."),
        "config.parse_ms": ms("config."),
        "config.input_bytes": per_op(counts.get("config.input_bytes", 0)),
        "network.build_ms": ms("network.FeedbackNetwork"),
        "network.solve_ms": ms("network.solve_closed_form"),
        "network.verify_ms": verify_ns / ops / 1e6,
        "network.solve_calls": per_op(calls.get("network.solve_closed_form", 0)),
        "network.self_ms": ms("network."),
        "linalg.invert_ms": ms("linalg.invert"),
        "linalg.invert_calls": per_op(calls.get("linalg.invert", 0)),
        "linalg.couple_calls": per_op(calls.get("linalg.couple", 0)),
        "linalg.random_unitary_ms": ms("linalg.random_unitary"),
        "linalg.spectral_radius_ms": ms("linalg.spectral_radius"),
        "linalg.self_ms": ms("linalg."),
        "oracle.iterate_ms": ms("oracle."),
        "oracle.traversals": per_op(counts.get("oracle.traversals", 0)),
        "oracle.converged_ratio": (
            counts.get("oracle.converged", 0) / oracle_calls if oracle_calls else 0.0
        ),
        "scenarios.phase_scan_ms": ms("scenarios.phase_scan"),
        "scenarios.points": per_op(counts.get("scenarios.points", 0)),
        "scenarios.self_ms": ms("scenarios."),
        "records.render_ms": ms("records."),
        "records.output_bytes": per_op(output_bytes),
        "svgplot.plot_ms": ms("svgplot."),
        "svgplot.output_bytes": per_op(counts.get("svgplot.output_bytes", 0)),
    }


def traced_run(wl, seconds: float, import_s: float) -> dict:
    """Half the time untraced, half traced; the per-layer metrics."""
    from tracer import Tracer

    untraced, failed_untraced, by_label = closed_loop(wl, seconds / 2)
    tracer = Tracer()
    tracer.install()
    wl.output_bytes = wl.verify_ns = 0
    traced, failed_traced, _ = closed_loop(wl, seconds / 2, tracer)
    metrics = layer_metrics(tracer.snapshot(), len(traced), wl.verify_ns, wl.output_bytes)
    summary = {}
    if wl.name == "loops":
        # the known-defect probe counts toward the converged ratio only
        before = tracer.counts["oracle.traversals"]
        tracer.enabled = True
        try:
            summary["probe_exit"] = wl.run(wl.probe)
        finally:
            tracer.enabled = False
        summary["probe_traversals"] = tracer.counts["oracle.traversals"] - before
        metrics["oracle.converged_ratio"] = (
            tracer.counts["oracle.converged"] / tracer.counts["oracle.calls"]
        )
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_ops_per_s"] = len(untraced) / sum(untraced) - len(traced) / sum(traced)
    summary.update(
        durations=untraced,
        by_label=by_label,
        traced_durations=traced,
        failed=failed_untraced + failed_traced,
        attempted=len(untraced) + len(traced),
        layers=metrics,
    )
    return summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import qtimeloop.cli  # noqa: F401  (numpy and scipy come with it)

    import_s = time.perf_counter() - start
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    wl.warm_up()
    summary: dict = {"import_s": import_s, "machine": machine_facts()}
    if args.trace:
        summary.update(traced_run(wl, args.seconds, import_s))
    else:
        durations, failed, by_label = closed_loop(wl, args.seconds)
        summary.update(
            durations=durations,
            by_label=by_label,
            failed=failed,
            attempted=len(durations),
        )
    summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
