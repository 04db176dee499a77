"""Result records and their JSON/CSV rendering.

Complex numbers serialize as {"re": ..., "im": ...}; floats go through
Python's shortest round-trip repr, so a record survives a JSON round trip
bit for bit.
"""

from __future__ import annotations

import numpy as np

from .network import NetworkSolution, transmitted_probability


def vector_to_json(v) -> list[dict]:
    # tolist() yields Python complex, so the parts render through float's repr
    return [{"re": z.real, "im": z.imag} for z in np.asarray(v, dtype=complex).tolist()]


def solution_to_json(sol: NetworkSolution) -> dict:
    return {
        "psi_in": vector_to_json(sol.psi_in),
        "psi1": vector_to_json(sol.psi1),
        "psi2": vector_to_json(sol.psi2),
        "psi4": vector_to_json(sol.psi4),
        "psi1_prime": vector_to_json(sol.psi1p),
        "psi2_prime": vector_to_json(sol.psi2p),
        "psi3_prime": vector_to_json(sol.psi3p),
        "psi4_prime": vector_to_json(sol.psi4p),
    }


def build_run_record(
    config_echo: dict,
    sol: NetworkSolution,
    *,
    version: str,
    timestamp: str | None = None,
    oracle: dict | None = None,
) -> dict:
    """Assemble the full result record; key order is fixed for determinism.

    The timestamp is isolated in its own optional field so comparison runs
    can drop it and diff the rest byte for byte.
    """
    record: dict = {"tool": "qtimeloop", "version": version}
    if timestamp is not None:
        record["timestamp"] = timestamp
    record["config"] = config_echo
    record["solution"] = solution_to_json(sol)
    record["transmitted_probability"] = transmitted_probability(sol)
    record["conservation_residual_t1"] = sol.conservation_residual_t1
    record["conservation_residual_t2"] = sol.conservation_residual_t2
    record["denominator_condition"] = sol.denom_condition
    if oracle is not None:
        record["oracle"] = oracle
    return record


def record_to_csv(record: dict) -> str:
    """Flat long-form CSV of a run record (the config echo stays JSON-only)."""
    lines = ["quantity,component,re,im"]
    for name, vec in record["solution"].items():
        for idx, entry in enumerate(vec):
            lines.append(f"{name},{idx},{entry['re']!r},{entry['im']!r}")
    for key in (
        "transmitted_probability",
        "conservation_residual_t1",
        "conservation_residual_t2",
        "denominator_condition",
    ):
        value = record[key]
        rendered = "" if value is None else repr(float(value))
        lines.append(f"{key},,{rendered},")
    oracle = record.get("oracle")
    if oracle is not None:
        lines.append(f"oracle_iterations,,{oracle['iterations']},")
        lines.append(f"oracle_relative_difference,,{oracle['relative_difference']!r},")
    return "\n".join(lines) + "\n"
