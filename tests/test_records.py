"""``json_pieces`` joined writes exactly what ``json.dumps(value, indent=2)`` does."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtimeloop.config import parse_config
from qtimeloop.network import solve_closed_form
from qtimeloop.records import build_run_record, json_pieces


def reference(value) -> str:
    return json.dumps(value, indent=2) + "\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
part = st.floats() | st.integers() | st.booleans() | st.floats().map(np.float64)
# lists of these the renderer writes in bulk when every part is a finite float
# in the order re, im; any other entry sends the list down the item-by-item path
entry = st.fixed_dictionaries({"re": finite, "im": finite})
odd_entry = (
    st.fixed_dictionaries({"re": part, "im": part})
    | st.fixed_dictionaries({"im": part, "re": part})
    | st.fixed_dictionaries({"re": part, "im": part, "x": part})
)
entry_lists = st.lists(entry, max_size=70) | st.lists(entry | odd_entry, max_size=70)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.fixed_dictionaries({"re": st.floats(), "im": st.floats()})
    | entry_lists,
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(value=json_values)
def test_record_to_json_matches_json_dumps(value):
    assert "".join(json_pieces(value)) == reference(value)


@pytest.mark.parametrize(
    "value",
    [
        {}, [], (), "", {"a": {}, "b": [], "c": [[], {}]},
        -0.0, 5e-324, 1e16, 1e-300, math.nan, math.inf, -math.inf,
        [{"re": math.nan, "im": -math.inf}, {"re": -0.0, "im": 5e-324}],
        # not the template: an int part, the other key order, a third key
        [{"re": 1, "im": 0.5}, {"im": 0.5, "re": 1.0}, {"re": 1.0, "im": 0.5, "x": None}],
        2**63, -(2**63) - 1, 10**40, [True, 1, False, 0, 1.0],
        "é 😀", "quote \" backslash \\ slash /", "\x00\x01\t\n\r\x1f\x7f",
        {"é": "ü", "\n": 1, '"': 2},
        (1, (2.5, "x")),
        # numpy scalars: float64 is a float, int64 is not an int
        [np.float64(0.1), np.float64("inf")],
        # a dict no json_pieces call opens takes json's key rule (True is the key 1 again)
        [{1: "a", 2.5: None, True: 0}],
    ],
    ids=repr,
)
def test_record_to_json_edge_cases(value):
    assert "".join(json_pieces(value)) == reference(value)


def test_d64_literal_solve_record_matches_json_dumps():
    rng = np.random.default_rng(64)

    def literal(*shape):
        parts = rng.standard_normal((*shape, 2)).tolist()
        if len(shape) == 1:
            return [{"re": re, "im": im} for re, im in parts]
        return [[{"re": re, "im": im} for re, im in row] for row in parts]

    cfg = {"dim": 64, "g1": literal(64, 64), "g2": literal(64, 64), "m": literal(64, 64),
           "beta": 0.3, "input_state": literal(64)}
    net, psi = parse_config(cfg)
    record = build_run_record(cfg, solve_closed_form(net, psi),
                              oracle={"iterations": 7, "relative_difference": 1e-13})
    assert "".join(json_pieces(record)) == reference(record)


@pytest.mark.parametrize(
    "value", [{1, 2}, 1j, np.int64(3), np.bool_(True), [b"bytes"]], ids=repr
)
def test_record_to_json_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as expected:
        reference(value)
    with pytest.raises(TypeError) as got:
        "".join(json_pieces(value))
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("key", [1, 2.5, True, None, (1, 2)], ids=repr)
def test_record_to_json_takes_only_str_keys(key):
    with pytest.raises(TypeError):
        "".join(json_pieces({"config": {key: 0}}))
