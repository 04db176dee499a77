"""Result records and their JSON/CSV rendering.

Complex numbers serialize as {"re": ..., "im": ...}; floats go through
Python's shortest round-trip repr, so a record survives a JSON round trip
bit for bit. ``record_to_json`` writes the bytes of
``json.dumps(record, indent=2)`` plus a newline, without the pure-Python
encoder that ``indent`` selects: one string per container, joined once. A
list of finite {re, im} float entries, the bulk of a record, is checked and
formatted in C-level passes, one ``%`` template per entry; any other list,
and the TypeError json raises, goes item by item.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

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


def record_to_json(record) -> str:
    """``json.dumps(record, indent=2) + "\\n"``, byte for byte.

    Dict keys must be str, as in every record; any other key, like any value
    json cannot encode, raises TypeError.
    """
    return _to_json(record, "\n") + "\n"


# float repr -> the JSON token json.dumps writes for it
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_RE_IM = ["re", "im"]


def _to_json(value, newline: str) -> str:
    """Render one value whose closing bracket, if any, follows ``newline``.

    The kinds json tells apart are disjoint but for bool, an int, so the
    tests run most frequent first, with True and False before int.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [f"{_quote(key)}: {_to_json(item, inner)}" for key, item in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        # the bulk of a record: {re, im} float entries, formatted one by one and
        # joined once (one % over all parts grows its buffer, and the heap with it)
        if set(map(type, value)) == {dict} and list(chain.from_iterable(value)) == _RE_IM * len(value):
            parts = tuple(chain.from_iterable(map(dict.values, value)))
            if set(map(type, parts)) == {float}:
                entry = f'{{{inner}  "re": %r,{inner}  "im": %r{inner}}}'
                body = (',' + inner).join(map(entry.__mod__, zip(parts[::2], parts[1::2])))
                if "n" not in body:  # only a nan or inf part writes an n
                    return f"[{inner}{body}{newline}]"
        items = [_to_json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
