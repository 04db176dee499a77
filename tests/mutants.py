"""Mutation check: can tier-1 see a wrong answer in the solver modules?

Each mutant changes one operator in one of ``MODULES``: it swaps ``+`` and
``-`` or ``*`` and ``/`` in a binary operation, drops a unary minus, or flips
the strictness of one comparison (``<`` and ``<=``, ``>`` and ``>=``). The
module is written back with ``ast.unparse`` into a copy of ``src/`` and
``tests/``, and tier-1 runs there under ``pytest -x``. A mutant is killed when
the run fails or times out; a survivor is a change no test notices.

Run from the repository root (pytest does not collect this file)::

    python tests/mutants.py [--workers N]

It first checks that the unmutated ``ast.unparse`` of every module passes,
then prints one line per survivor and the kill count.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qtimeloop"
MODULES = ("network", "oracle", "linalg", "scenarios")
TIMEOUT_S = 900  # per tier-1 run; a mutant that loops past it counts as killed
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
        ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
          ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


class Mutator(ast.NodeTransformer):
    """Counts the mutation sites in visiting order and applies the one at ``target``."""

    def __init__(self, target: int = -1):
        self.target, self.sites, self.applied = target, [], None

    def _site(self, node, what: str) -> bool:
        self.sites.append(f"{node.lineno}: {what}")
        if len(self.sites) - 1 == self.target:
            self.applied = self.sites[-1]
            return True
        return False

    def visit_BinOp(self, node):
        self.generic_visit(node)
        kind = type(node.op)
        if kind in SWAP and self._site(node, f"{SYMBOL[kind]} -> {SYMBOL[SWAP[kind]]}"):
            node.op = SWAP[kind]()
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.USub) and self._site(node, "drop unary -"):
            return node.operand
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            kind = type(op)
            if kind in SWAP and self._site(node, f"{SYMBOL[kind]} -> {SYMBOL[SWAP[kind]]}"):
                node.ops[i] = SWAP[kind]()
        return node


def mutate(source: str, target: int = -1) -> tuple[str, list[str], str | None]:
    """(unparsed source with site ``target`` mutated, all site names, the applied site)."""
    mutator = Mutator(target)
    tree = ast.fix_missing_locations(mutator.visit(ast.parse(source)))
    return ast.unparse(tree), mutator.sites, mutator.applied


def run_tier1(module: str, source: str) -> str:
    """'passed', 'failed' or 'timeout' for tier-1 with ``module`` replaced by ``source``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        shutil.copytree(ROOT / "src", Path(tmp, "src"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", Path(tmp, "tests"), ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("README.md", "pyproject.toml"):
            shutil.copy(ROOT / name, tmp)
        Path(tmp, "src", "qtimeloop", f"{module}.py").write_text(source, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        try:
            proc = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "passed" if proc.returncode == 0 else "failed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, default=2, help="tier-1 runs at a time")
    args = parser.parse_args()
    jobs = []
    for module in MODULES:
        source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        plain, sites, _ = mutate(source)
        if run_tier1(module, plain) != "passed":
            print(f"{module}: the unmutated ast.unparse fails tier-1", flush=True)
            return 1
        for k in range(len(sites)):
            mutated, _, site = mutate(source, k)
            jobs.append((module, mutated, site))
    with ThreadPoolExecutor(args.workers) as pool:
        outcomes = list(pool.map(lambda job: run_tier1(job[0], job[1]), jobs))
    survivors = [f"{module}.py:{site}" for (module, _, site), outcome in zip(jobs, outcomes)
                 if outcome == "passed"]
    for line in survivors:
        print("survivor", line)
    print(f"killed {len(jobs) - len(survivors)} of {len(jobs)} mutants", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
