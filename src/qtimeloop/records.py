"""Result records and their JSON/CSV rendering.

Complex numbers serialize as {"re": ..., "im": ...}; floats go through
Python's shortest round-trip repr, so a record survives a JSON round trip
bit for bit. ``json_pieces`` yields ``json.dumps(record, indent=2)`` plus a
newline in pieces, one per dict key and matrix row, for the CLI to write as
they are made. Two renderers are the package's own: a list of finite {re, im}
float entries, the bulk of a record, takes one ``%`` template per entry
(json's ``indent`` encoder is pure Python), and a finite float its
``float.__repr__``. Every other value, its tokens and its TypeError, is
``json.dumps``'s.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .network import NetworkSolution, transmitted_probability


def build_run_record(
    config_echo: dict,
    sol: NetworkSolution,
    *,
    timestamp: str | None = None,
    oracle: dict | None = None,
) -> dict:
    """Assemble the full result record; key order is fixed for determinism.

    The timestamp is isolated in its own optional field so comparison runs
    can drop it and diff the rest byte for byte.
    """
    record: dict = {"tool": "qtimeloop", "version": __version__}
    if timestamp is not None:
        record["timestamp"] = timestamp
    record["config"] = config_echo
    # the record's psi1_prime is the field psi1p, and so on; tolist() yields
    # Python complex, so the parts render through float's repr
    record["solution"] = {key: [
        {"re": z.real, "im": z.imag} for z in getattr(sol, key.replace("_prime", "p")).tolist()
    ] for key in (
        "psi_in", "psi1", "psi2", "psi4", "psi1_prime", "psi2_prime", "psi3_prime", "psi4_prime")}
    record["transmitted_probability"] = transmitted_probability(sol)
    record["conservation_residual_t1"] = sol.conservation_residual_t1
    record["conservation_residual_t2"] = sol.conservation_residual_t2
    record["denominator_condition"] = sol.denom_condition
    if oracle is not None:
        record["oracle"] = oracle
    return record


def csv_pieces(record: dict):
    """Flat long-form CSV of a run record, a piece per vector (the config echo stays JSON-only)."""
    yield "quantity,component,re,im\n"
    for name, vec in record["solution"].items():
        yield "".join(f"{name},{i},{e['re']!r},{e['im']!r}\n" for i, e in enumerate(vec))
    for key in ("transmitted_probability", "conservation_residual_t1",
                "conservation_residual_t2", "denominator_condition"):
        value = record[key]
        yield f"{key},,{'' if value is None else repr(float(value))},\n"
    oracle = record.get("oracle")
    if oracle is not None:
        yield f"oracle_iterations,,{oracle['iterations']},\n"
        yield f"oracle_relative_difference,,{oracle['relative_difference']!r},\n"


def json_pieces(value, newline: str = "\n", end: str = "\n"):
    """``json.dumps(value, indent=2) + "\\n"`` in pieces, to write as they are made.

    A dict opens into its keys and a list of lists (a matrix) into its rows;
    any other value, a whole {re, im} vector or row too, is one piece. Only a
    dict ``json_pieces`` opens, the value and each non-empty dict not in a
    list, takes nothing but str keys; elsewhere json's key rule holds.
    """
    if not _opens(value):
        yield _to_json(value, newline) + end
        return
    inner = newline + "  "
    if isinstance(value, dict):
        brackets, items = "{}", [(f"{_quote(key)}: ", item) for key, item in value.items()]
    else:
        brackets, items = "[]", [("", row) for row in value]
    for i, (key, item) in enumerate(items):
        head = f"{',' if i else brackets[0]}{inner}{key}"
        if _opens(item):
            yield head
            yield from json_pieces(item, inner, "")
        else:
            yield head + _to_json(item, inner)
    yield newline + brackets[1] + end


def _opens(value) -> bool:
    """Whether ``json_pieces`` writes value by its members: a non-empty dict or matrix."""
    if isinstance(value, dict):
        return bool(value)
    return isinstance(value, (list, tuple)) and bool(value) and isinstance(value[0], (list, tuple))


def _to_json(value, newline: str) -> str:
    """Render one value whose closing bracket, if any, follows ``newline``."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)  # json's token, without its per-call encoder setup
    # the bulk of a record: {re, im} float entries, formatted one by one and
    # joined once (one % over all parts grows its buffer, and the heap with it)
    if isinstance(value, list) and set(map(type, value)) == {dict} and (
            list(chain.from_iterable(value)) == ["re", "im"] * len(value)):
        parts = tuple(chain.from_iterable(map(dict.values, value)))
        if set(map(type, parts)) == {float}:
            inner = newline + "  "
            entry = f'{{{inner}  "re": %r,{inner}  "im": %r{inner}}}'
            body = (',' + inner).join(map(entry.__mod__, zip(parts[::2], parts[1::2])))
            if "n" not in body:  # only a nan or inf part writes an n
                return f"[{inner}{body}{newline}]"
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    # json escapes a newline inside a string, so every one it writes is structural
    return json.dumps(value, indent=2).replace("\n", newline)
