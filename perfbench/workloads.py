"""Seeded inputs, ops and output checks of the benchmark workloads.

Each workload turns the seed into a fixed cycle of ops (command lines for the
qtimeloop CLI plus the input files they name). The closed loop replays whole
cycles, so every run executes the op mix in exactly the proportions below and
the medians do not depend on where a run happens to stop. The program sees
only the generated files and arguments; the generators and the reference
formulas used by the checks are the benchmark's own.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
import warnings

import numpy as np


SCAN_POINTS = 4001
SCAN_TOL = 1e-10  # per-row |transmitted - analytic|; worst seen is ~3e-13
FIXED_POINT_TOL = 1e-10
ORACLE_TOL = 1e-9


def lineshape(beta: float, phi: float) -> float:
    """Grandfather transmission 1 / (1 + 4 (alpha^2 / beta^4) sin^2(phi / 2))."""
    s = math.sin(0.5 * phi)
    return 1.0 / (1.0 + 4.0 * (1.0 - beta * beta) / beta**4 * s * s)


def fwhm(beta: float) -> float:
    """Predicted resonance width 2 beta^2 / alpha."""
    return 2.0 * beta * beta / math.sqrt(1.0 - beta * beta)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _literal(a) -> list:
    if a.ndim == 1:
        return [{"re": float(z.real), "im": float(z.imag)} for z in a]
    return [_literal(row) for row in a]


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def grandfather_config(beta: float, theta: float, phase: float) -> dict:
    """d=1 blocked-channel config; theta and the input phase leave every
    observable, the oracle's traversal count included, unchanged."""
    return {
        "dim": 1,
        "g1": "zero",
        "g2": f"phase:{-theta!r}",
        "m": f"phase:{theta!r}",
        "beta": beta,
        "input_state": [{"re": math.cos(phase), "im": math.sin(phase)}],
    }


def random_config(rng: np.random.Generator, dim: int, beta: float, literal: bool) -> dict:
    """Haar-random channels, as `random-unitary:<seed>` presets or as
    explicit {re, im} matrices drawn by the benchmark itself."""
    cfg: dict = {"dim": dim}
    for name in ("g1", "g2", "m"):
        if literal:
            cfg[name] = _literal(haar_unitary(rng, dim))
        else:
            cfg[name] = f"random-unitary:{int(rng.integers(1, 2**31))}"
    cfg["beta"] = beta
    if literal:
        cfg["input_state"] = _literal(_unit_vector(rng, dim))
    else:
        cfg["input_state"] = f"basis:{int(rng.integers(dim))}"
    return cfg


class Op:
    """One CLI invocation: its label, argv and the files it must write."""

    def __init__(self, label: str, argv: list[str], outputs: list[str], **data):
        self.label = label
        self.argv = argv
        self.outputs = outputs
        self.data = data


class Workload:
    """A seeded op cycle run in-process through ``qtimeloop.cli.main``."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.ops: list[Op] = []
        # for the trace: bytes of solve records written, time in the
        # fixed-point verification of the checks
        self.output_bytes = 0
        self.verify_ns = 0
        self.make_ops()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_config(self, name: str, cfg: dict) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return path

    def make_ops(self) -> None:
        raise NotImplementedError

    def prepare(self, op: Op) -> None:
        """Remove the op's outputs so a stale file cannot pass the check."""
        for path in op.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def run(self, op: Op) -> int:
        from qtimeloop import cli

        return cli.main(op.argv)

    def warm_up(self) -> None:
        """Run every op once; lazy imports and first-call costs land here."""
        for op in self.ops:
            self.prepare(op)
            self.run(op)

    def check(self, op: Op) -> bool:
        raise NotImplementedError

    def read(self, path: str) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()


class Scan(Workload):
    """`qtimeloop scan --points 4001 --out CSV --svg SVG`, one op per beta."""

    BETAS = (0.3, 0.1, 0.03)

    def make_ops(self) -> None:
        for i, beta in enumerate(self.rng.permutation(self.BETAS)):
            beta = float(beta)
            theta = float(self.rng.uniform(-math.pi, math.pi))
            # beta >= 0.1 resolves its width on the full circle; beta = 0.03
            # needs a window of about +-20 predicted widths
            half = math.pi if beta >= 0.1 else 20.0 * fwhm(beta)
            csv, svg = self.path(f"scan{i}.csv"), self.path(f"scan{i}.svg")
            argv = [
                "scan", f"--beta={beta!r}", f"--theta={theta!r}",
                f"--phi-min={-half!r}", f"--phi-max={half!r}",
                "--points", str(SCAN_POINTS), "--out", csv, "--svg", svg,
            ]
            self.ops.append(Op(f"scan-beta{beta:g}", argv, [csv, svg], beta=beta))

    def check(self, op: Op) -> bool:
        csv_path, svg_path = op.outputs
        beta = op.data["beta"]
        with open(csv_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rows = [line for line in lines[1:] if not line.startswith("#")]
        if lines[0] != "phi,transmitted,analytic,abs_error" or len(rows) != SCAN_POINTS:
            return False
        for row in rows:
            phi, transmitted, analytic, abs_error = map(float, row.split(","))
            if not abs_error <= SCAN_TOL:
                return False
            if not abs(transmitted - lineshape(beta, phi)) <= SCAN_TOL:
                return False
        with open(svg_path, encoding="utf-8") as fh:
            svg = fh.read()
        start = svg.find('<polyline points="')
        if start < 0:
            return False
        points = svg[start:].split('"', 2)[1].split()
        return len(points) == SCAN_POINTS


def _solution_vectors(text: str, fmt: str) -> dict[str, np.ndarray]:
    """The seven amplitudes of a solve record, from its JSON or CSV form."""
    if fmt == "json":
        solution = json.loads(text)["solution"]
        return {
            name: np.array([complex(c["re"], c["im"]) for c in vec])
            for name, vec in solution.items()
        }
    entries: dict[str, list[complex]] = {}
    for line in text.splitlines()[1:]:
        name, component, re, im = line.split(",")
        if component:
            entries.setdefault(name, []).append(complex(float(re), float(im)))
    return {name: np.array(vec) for name, vec in entries.items()}


class Dense(Workload):
    """`qtimeloop solve CONFIG --no-timestamp` on random networks up to d=64.

    Every (d, preset/literal, json/csv) triple appears in each cycle, d = 1
    six times as often as the others. d = 1 is where the package's worked
    cases live, and it is the one group whose latency does not swing with
    BLAS thread wake-ups: the median falls inside it, at its 75th
    percentile, instead of inside the bimodal d = 4 or d = 16 groups. The
    d = 16 and d = 64 ops still take most of the busy time.
    """

    name = "dense"
    DIMS = (1, 1, 1, 1, 1, 1, 4, 16, 64)

    def make_ops(self) -> None:
        specs = [
            (dim, literal, fmt)
            for dim in self.DIMS
            for literal in (False, True)
            for fmt in ("json", "csv")
        ]
        for i, k in enumerate(self.rng.permutation(len(specs))):
            dim, literal, fmt = specs[k]
            beta = float(self.rng.uniform(0.1, 0.9))
            cfg = random_config(self.rng, dim, beta, literal)
            path = self.write_config(f"dense{i}.cfg.json", cfg)
            out = self.path(f"dense{i}.out.{fmt}")
            argv = ["solve", path, "--no-timestamp", "--format", fmt, "--out", out]
            kind = "literal" if literal else "preset"
            self.ops.append(Op(f"d{dim}-{kind}-{fmt}", argv, [out], config=cfg, fmt=fmt))

    def warm_up(self) -> None:
        """Each op's first record becomes the reference later runs must
        reproduce byte for byte."""
        from qtimeloop.config import parse_config

        for op in self.ops:
            self.prepare(op)
            if self.run(op) == 0:
                op.data["network"] = parse_config(op.data["config"])[0]
                op.data["reference"] = self.read(op.outputs[0])

    def check(self, op: Op) -> bool:
        from qtimeloop.network import NetworkSolution, verify_fixed_point

        data = self.read(op.outputs[0])
        self.output_bytes += len(data)
        if data != op.data.get("reference"):
            return False
        v = _solution_vectors(data.decode("utf-8"), op.data["fmt"])
        sol = NetworkSolution(
            psi_in=v["psi_in"], psi1=v["psi1"], psi2=v["psi2"], psi4=v["psi4"],
            psi1p=v["psi1_prime"], psi2p=v["psi2_prime"], psi3p=v["psi3_prime"],
            psi4p=v["psi4_prime"], denom_condition=None,
            conservation_residual_t1=0.0, conservation_residual_t2=0.0,
        )
        start = time.perf_counter_ns()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            residual = verify_fixed_point(op.data["network"], sol, tol=FIXED_POINT_TOL)
        self.verify_ns += time.perf_counter_ns() - start
        return residual <= FIXED_POINT_TOL


class Oracle(Workload):
    """`qtimeloop solve CONFIG --oracle --no-timestamp`.

    Grandfather d=1 at beta 0.3, 0.1, 0.03 and 0.01, and random d=4 and
    d=16 networks at beta 0.3. beta = 0.1 appears five times per cycle so
    the median lands inside that group; beta = 0.01 (230,229 traversals)
    still sets most of the busy time.
    """

    GRANDFATHER = (0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.03, 0.01)
    RANDOM = (4, 16)
    RANDOM_BETA = 0.3
    # Diverges today: 1,000,000 traversals, exit 3. Run once in the traced
    # run as a probe of the known defect, never as a timed op.
    PROBE_BETA = 0.003

    def make_ops(self) -> None:
        cfgs = []
        for beta in self.GRANDFATHER:
            theta, phase = self.rng.uniform(-math.pi, math.pi, 2)
            cfgs.append((f"gf-beta{beta:g}", grandfather_config(beta, float(theta), float(phase))))
        for dim in self.RANDOM:
            cfgs.append((f"random-d{dim}", random_config(self.rng, dim, self.RANDOM_BETA, False)))
        for i, k in enumerate(self.rng.permutation(len(cfgs))):
            label, cfg = cfgs[k]
            self.ops.append(self._op(label, f"oracle{i}", cfg))
        self.probe = self._op("gf-probe", "probe", grandfather_config(self.PROBE_BETA, 0.0, 0.0))

    def _op(self, label: str, stem: str, cfg: dict) -> Op:
        path = self.write_config(f"{stem}.cfg.json", cfg)
        out = self.path(f"{stem}.out.json")
        return Op(label, ["solve", path, "--oracle", "--no-timestamp", "--out", out], [out])

    def check(self, op: Op) -> bool:
        data = self.read(op.outputs[0])
        self.output_bytes += len(data)
        oracle = json.loads(data)["oracle"]
        return oracle["relative_difference"] <= ORACLE_TOL


class Loops(Workload):
    """The `scan` and `oracle` op cycles as one cycle, in seeded order.

    Both spend their time in per-point or per-traversal Python around d=1
    numpy calls, the code that moves most with the speed of the host, so
    they share one workload and its longer runs. `dense` stays on its own:
    it bypasses the phase scan and the oracle.
    """

    name = "loops"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        super().__init__(seed, workdir)

    def make_ops(self) -> None:
        scan, oracle = Scan(self.seed, self.workdir), Oracle(self.seed, self.workdir)
        # op labels differ between the parts, so the label picks the check
        self._checks = {op.label: type(part).check for part in (scan, oracle) for op in part.ops}
        ops = scan.ops + oracle.ops
        self.ops = [ops[k] for k in self.rng.permutation(len(ops))]
        self.probe = oracle.probe

    def check(self, op: Op) -> bool:
        return self._checks[op.label](self, op)


WORKLOADS = {cls.name: cls for cls in (Loops, Dense)}
