"""Command-line front end.

Three subcommands: ``solve`` runs a JSON problem config through the
closed-form solver (optionally cross-checked by the loop-unrolling
iteration), ``scenario`` runs one of the named worked cases and reports
PASS/FAIL per identity, ``scan`` sweeps the feedback phase and writes a
CSV lineshape plus an optional SVG plot.

This module only parses arguments, writes results as they are rendered and
maps errors to exit codes: the worked cases, their identities and tolerances
live in :mod:`qtimeloop.scenarios`, the scan's input rules in ``phase_scan``
and its width verdict in ``PhaseScanResult``.

Warnings, such as an oracle loop radius of 1 or more, print as one
``warning:`` line on stderr, errors as one ``error:`` line.

Exit codes: 0 success, 1 config/usage error or violated identity,
2 singular loop denominator, 3 iteration did not converge.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import warnings
from datetime import datetime, timezone

from . import __version__
from .config import load_config, parse_config
from .linalg import SingularMatrixError, _max_relative_difference
from .network import SingularDenominatorError, solve_closed_form
from .oracle import DEFAULT_MAX_ITER, DEFAULT_TOL, NotConvergedError, solve_by_iteration
from .records import build_run_record, csv_pieces, json_pieces
from .scenarios import (
    SPECIAL_CASES,
    grandfather_case,
    grandfather_transmission,
    perturbative_case,
    phase_scan,
    special_case,
    undo_case,
)
from .svgplot import polyline_plot

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SINGULAR = 2
EXIT_NOT_CONVERGED = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a minus before any float literal starts a value: argparse alone reads
        # -1 and -.5 so, but takes -1e-3 for an option
        self._negative_number_matcher = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.I)

    # usage mistakes are config errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _write_output(pieces, path: str | None) -> None:
    """Write text pieces to path, or to stdout, as they are made."""
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        # a record streams in small pieces: flush them 64 KiB at a time, not 8 KiB
        with open(path, "w", buffering=1 << 16, encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    net, psi = parse_config(cfg)
    solution = solve_closed_form(net, psi)
    oracle = None
    if args.oracle:
        oracle_solution, report = solve_by_iteration(net, psi, tol=args.tol, max_iter=args.max_iter)
        oracle = {
            "iterations": report.iterations_used,
            "relative_difference": _max_relative_difference(
                solution.psi3p, oracle_solution.psi3p
            ),
        }
    timestamp = None
    if not args.no_timestamp:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    record = build_run_record(cfg, solution, timestamp=timestamp, oracle=oracle)
    pieces = json_pieces if args.format == "json" else csv_pieces
    _write_output(pieces(record), args.out)
    return EXIT_OK


# name -> (case, its arguments, which are echoed into the header line and the
# --out record); a case returns ([(label, residual, tol)] checks, result fields)
_SCENARIOS = {
    **{name: (functools.partial(special_case, name), ("seed", "dim")) for name in SPECIAL_CASES},
    "grandfather": (grandfather_case, ("beta", "theta", "phi")),
    "undo": (undo_case, ("seed", "dim", "beta")),
    "perturbative": (perturbative_case, ("seed", "dim", "gamma")),
}
# option -> (type, default); unset unless given, so a case can refuse what it does not echo
_SCENARIO_OPTIONS = {"seed": (int, 0), "dim": (int, 4), "beta": (float, 0.1),
                     "theta": (float, 0.0), "phi": (float, 0.0), "gamma": (float, 1e-4)}


def cmd_scenario(args) -> int:
    """Run one named case and print a PASS/FAIL line per identity it checks."""
    case, echo = _SCENARIOS[args.name]
    ignored = [f"--{key}" for key in _SCENARIO_OPTIONS if key not in echo and hasattr(args, key)]
    if ignored:
        raise ValueError(f"scenario {args.name} does not take {', '.join(ignored)}")
    echoed = {key: getattr(args, key, _SCENARIO_OPTIONS[key][1]) for key in echo}
    checks, fields = case(**echoed)
    # floats print as %g, ints (seed, dim) in full
    print(f"{args.name}: " + " ".join(
        f"{key}={value:g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in echoed.items()
    ))
    if args.name == "grandfather":
        r1, r2, r4 = fields["ratios"]
        print(f"  ratios |psi1/psi|={r1:.6g} |psi2/psi|={r2:.6g} |psi4/psi|={r4:.6g}")
        print(f"  transmitted={fields['transmitted']:.12g} analytic={fields['analytic']:.12g}")
    for label, residual, tol in checks:
        verdict = "PASS" if residual <= tol else "FAIL"
        print(f"  {verdict}  {label} (residual {residual:.3e}, tol {tol:g})")
    passed = all(residual <= tol for _, residual, tol in checks)
    if args.out:
        record = {"tool": "qtimeloop", "version": __version__, "scenario": args.name,
                  **echoed, **fields, "passed": passed}
        _write_output(json_pieces(record), args.out)
    return EXIT_OK if passed else EXIT_CONFIG


def cmd_scan(args) -> int:
    result = phase_scan(args.beta, args.phi_min, args.phi_max, args.points, theta=args.theta)
    _write_output(_scan_lines(result, args.beta), args.out)

    if args.svg:
        svg = polyline_plot(result.points, title=f"beta={args.beta:g} theta={args.theta:g}")
        _write_output((svg,), args.svg)
    return EXIT_OK


def _scan_lines(result, beta: float):
    """The scan CSV, row by row, then its footer."""
    yield "phi,transmitted,analytic,abs_error\n"
    for phi, transmitted in result.points:
        analytic = grandfather_transmission(beta, phi)
        yield f"{phi!r},{transmitted!r},{analytic!r},{abs(transmitted - analytic)!r}\n"
    numeric = result.fwhm_numeric
    yield f"# fwhm_numeric = {'none' if numeric is None else repr(numeric)}\n"
    yield f"# fwhm_predicted = {result.fwhm_predicted!r}\n"
    if result.width_out_of_regime:
        yield "# width formula out of small-beta regime\n"


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(
        prog="qtimeloop",
        description="Simulator for two-coupler feedback-in-time networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="solve a JSON problem config")
    solve.add_argument("config", help="path to the JSON network description")
    solve.add_argument("--oracle", action="store_true",
                       help="cross-check against the loop-unrolling solver")
    solve.add_argument("--tol", type=float, default=DEFAULT_TOL, help="oracle update tolerance")
    solve.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                       help="oracle iteration budget")
    solve.add_argument("--out", help="write the record here instead of stdout")
    solve.add_argument("--format", choices=("json", "csv"), default="json")
    solve.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp so reruns are byte-identical")
    solve.set_defaults(func=cmd_solve)

    scenario = sub.add_parser("scenario", help="run a named worked case")
    scenario.add_argument("name", choices=tuple(_SCENARIOS))
    for key, (kind, default) in _SCENARIO_OPTIONS.items():
        users = ", ".join(name for name, (_, echo) in _SCENARIOS.items() if key in echo)
        scenario.add_argument(f"--{key}", type=kind, default=argparse.SUPPRESS,
                              help=f"default {default}; taken by {users}")
    scenario.add_argument("--out", help="also write a JSON summary here")
    scenario.set_defaults(func=cmd_scenario)

    scan = sub.add_parser("scan", help="sweep the feedback phase, extract the resonance width")
    scan.add_argument("--beta", type=float, required=True)
    scan.add_argument("--theta", type=float, default=0.0)
    scan.add_argument("--phi-min", dest="phi_min", type=float, default=-math.pi)
    scan.add_argument("--phi-max", dest="phi_max", type=float, default=math.pi)
    scan.add_argument("--points", type=int, default=4001)
    scan.add_argument("--out", help="CSV output path (stdout when omitted)")
    scan.add_argument("--svg", help="optional SVG plot path")
    scan.set_defaults(func=cmd_scan)
    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    # one line, like the error lines: no path, line number or source of the caller
    return f"warning: {message}\n"


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help/--version and usage errors
        return int(exc.code or 0)
    default_format, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.func(args)
    # ConfigError is a ValueError, SingularDenominatorError a SingularMatrixError
    except (NotConvergedError, SingularMatrixError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NotConvergedError):
            return EXIT_NOT_CONVERGED
        return EXIT_SINGULAR if isinstance(exc, SingularDenominatorError) else EXIT_CONFIG
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
