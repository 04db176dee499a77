import json
import math
import re

import numpy as np
import pytest

from qtimeloop.config import ConfigError, load_config, parse_config
from qtimeloop.network import NetworkSolution, solve_closed_form
from qtimeloop.records import build_run_record, csv_pieces, json_pieces


def json_to_vector(items):
    return np.array([complex(item["re"], item["im"]) for item in items])


def base_config(**overrides):
    cfg = {
        "dim": 2,
        "g1": "identity",
        "g2": "identity",
        "m": "zero",
        "beta": 0.5,
        "input_state": "basis:0",
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------- parsing

def test_parse_presets():
    net, psi = parse_config(base_config())
    np.testing.assert_array_equal(net.g1, np.eye(2))
    np.testing.assert_array_equal(net.m, np.zeros((2, 2)))
    np.testing.assert_array_equal(psi, np.array([1.0, 0.0]))
    assert net.splitter.beta == 0.5


def test_parse_phase_preset():
    net, _ = parse_config(base_config(g2="phase:1.5707963267948966"))
    assert net.g2[0, 0] == pytest.approx(1j, abs=1e-12)


def test_parse_random_unitary_preset_is_seeded():
    net_a, _ = parse_config(base_config(dim=3, g1="random-unitary:7", input_state="basis:2"))
    net_b, _ = parse_config(base_config(dim=3, g1="random-unitary:7", input_state="basis:2"))
    np.testing.assert_array_equal(net_a.g1, net_b.g1)
    assert np.max(np.abs(net_a.g1.conj().T @ net_a.g1 - np.eye(3))) <= 1e-10


def test_parse_matrix_and_vector_literals():
    cfg = base_config(
        dim=2,
        g1=[[{"re": 0.0, "im": 1.0}, 0.0], [0.0, {"re": 1.0}]],
        input_state=[{"re": 0.6}, {"re": 0.0, "im": 0.8}],
    )
    net, psi = parse_config(cfg)
    assert net.g1[0, 0] == 1j
    assert net.g1[1, 1] == 1.0
    np.testing.assert_allclose(psi, np.array([0.6, 0.8j]))


def test_parse_alpha_instead_of_beta():
    cfg = base_config()
    del cfg["beta"]
    cfg["alpha"] = 1.0
    net, _ = parse_config(cfg)
    assert net.splitter.alpha == 1.0
    assert net.splitter.beta == 0.0


def test_parse_rejects_both_or_neither_coupler_amplitude():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(base_config(alpha=0.6))
    cfg = base_config()
    del cfg["beta"]
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(cfg)


def test_parse_rejects_bad_shapes():
    with pytest.raises(ConfigError, match="2x2"):
        parse_config(base_config(g1=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(ConfigError, match="length 2"):
        parse_config(base_config(input_state=[1.0]))


def test_parse_rejects_unknown_keys_and_presets():
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config(base_config(extra=1))
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config(base_config(g1="hadamard"))
    with pytest.raises(ConfigError, match="basis index"):
        parse_config(base_config(input_state="basis:5"))


def test_negative_random_unitary_seed_names_the_operator_and_preset():
    message = "m: random-unitary seed must be non-negative, got 'random-unitary:-5'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(base_config(m="random-unitary:-5"))


def test_parse_rejects_bad_dim_and_amplitudes():
    with pytest.raises(ConfigError):
        parse_config(base_config(dim=0))
    with pytest.raises(ConfigError):
        parse_config(base_config(dim=2.5))
    with pytest.raises(ConfigError):
        parse_config(base_config(beta=1.5))
    with pytest.raises(ConfigError):
        parse_config(base_config(beta="0.5"))


def test_parse_rejects_huge_integer_amplitude():
    with pytest.raises(ConfigError, match=r"^beta must lie in \[0, 1\]$"):
        parse_config(base_config(beta=10**400))


def test_parse_rejects_zero_input():
    with pytest.raises(ConfigError, match="nonzero norm"):
        parse_config(base_config(input_state=[0.0, 0.0]))


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(array)


def test_load_config_rejects_non_utf8_bytes(tmp_path):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"dim": 1, "g1": "caf\u00e9"}'.encode("latin-1"))
    with pytest.raises(ConfigError, match=f"^config {re.escape(str(latin1))} is not valid UTF-8: "):
        load_config(latin1)


# entry -> the ConfigError text after its position
MALFORMED_ENTRIES = {
    "bool": (True, "booleans are not numbers"),
    "extra-key": ({"re": 1.0, "phase": 0.5}, "unexpected entry keys ['phase']"),
    "string-re": ({"re": "1.0"}, "re/im must be numbers"),
    "list": ([1.0, 0.0], "expected a number or an {re, im} object"),
    "none": (None, "expected a number or an {re, im} object"),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_ENTRIES))
@pytest.mark.parametrize("field", ["g2", "input_state"])
def test_malformed_literal_entry_message_names_its_position(field, kind):
    bad, message = MALFORMED_ENTRIES[kind]
    # a later bad entry must not be the one reported
    if field == "g2":
        cfg, where = base_config(g2=[[1.0, 0.0], [bad, "later"]]), "g2[1][0]"
    else:
        cfg, where = base_config(dim=3, input_state=[1.0, bad, "later"]), "input_state[1]"
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert str(info.value) == f"{where}: {message}"


@pytest.mark.parametrize(
    "overrides, where",
    [
        ({"g1": [[1.0, {"im": math.nan}], [math.inf, 0.0]]}, "g1[0][1]"),
        ({"m": [[0.0, 0.0], [{"re": -math.inf, "im": 1.0}, 0.0]]}, "m[1][0]"),
        ({"dim": 3, "input_state": [1, 0.0, {"re": -math.inf}]}, "input_state[2]"),
        ({"input_state": [math.nan, 1.0]}, "input_state[0]"),
        # json.load reads an integer of any size; beyond the largest double it is not finite
        ({"g2": [[1.0, 0.0], [0.0, {"re": -(10**400)}]]}, "g2[1][1]"),
        ({"input_state": [10**400, 1.0]}, "input_state[0]"),
    ],
)
def test_non_finite_literal_entry_is_a_config_error(overrides, where):
    with pytest.raises(ConfigError) as info:
        parse_config(base_config(**overrides))
    assert str(info.value) == f"{where}: entries must be finite"


@pytest.mark.parametrize("later", [10**400, True, "x"], ids=["huge-int", "bool", "string"])
def test_a_non_finite_entry_is_named_before_a_later_bad_cell(later):
    with pytest.raises(ConfigError) as info:
        parse_config(base_config(input_state=[math.nan, later]))
    assert str(info.value) == "input_state[0]: entries must be finite"


def test_literal_entries_keep_their_numeric_types():
    cfg = base_config(
        g1=[[np.float64(0.5), {"re": 1, "im": np.float64(-0.0)}], [-0.0, {"im": 2}]],
        input_state=[3, {"im": 1e-300}],
    )
    net, psi = parse_config(cfg)
    np.testing.assert_array_equal(net.g1, np.array([[0.5, 1.0], [0.0, 2j]]))
    assert math.copysign(1.0, net.g1[0, 1].imag) == -1.0
    assert math.copysign(1.0, net.g1[1, 0].real) == -1.0
    np.testing.assert_array_equal(psi, np.array([3.0, 1e-300j]))


def random_entry(rng):
    """A literal entry in one of the forms a config may use."""
    re, im = rng.standard_normal(2) * 10.0 ** rng.integers(-300, 300, 2)
    ints = [int(k) for k in rng.integers(-(2**62), 2**62, 2)]
    return [
        {"re": re, "im": im}, {"im": im, "re": re}, {"re": re}, {"im": im}, {}, re,
        {"re": ints[0], "im": ints[1]}, ints[0], 10**300 + ints[1], {"im": -(2**64) - ints[1]},
        -0.0, {"re": -0.0, "im": -0.0}, {"im": -0.0}, 5e-324, {"re": -5e-324, "im": 5e-324},
    ][rng.integers(15)]


def reference_entry(cell) -> complex:
    """What an entry stands for: complex(float(re), float(im)), a missing part 0.0."""
    if isinstance(cell, dict):
        return complex(float(cell.get("re", 0.0)), float(cell.get("im", 0.0)))
    return complex(float(cell), 0.0)


def assert_same_bits(got, want):
    # signed zeros count: -0.0 and 0.0 differ in their bits
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.float64).view(np.uint64),
                                  want.view(np.float64).view(np.uint64))


@pytest.mark.parametrize("dim", [1, 4, 64])
def test_literals_in_every_entry_form_parse_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    literal = {
        name: [[random_entry(rng) for _ in range(dim)] for _ in range(dim)]
        for name in ("g1", "g2", "m")
    }
    state = [random_entry(rng) for _ in range(dim - 1)] + [{"re": 1.0, "im": -0.0}]
    net, psi = parse_config(base_config(dim=dim, input_state=state, **literal))
    for name, rows in literal.items():
        want = np.array([[reference_entry(cell) for cell in row] for row in rows])
        assert_same_bits(getattr(net, name), want)
    assert_same_bits(psi, np.array([reference_entry(cell) for cell in state]))


# the last cell of a d=64 literal -> the ConfigError text after its position
LAST_CELL_ERRORS = {
    "third-key": ({"re": 1.0, "im": 0.0, "x": 1.0}, "unexpected entry keys ['x']"),
    "bool-part": ({"re": 1.0, "im": False}, "re/im must be numbers"),
    "string": ("1.0", "expected a number or an {re, im} object"),
    "nan": ({"re": 1.0, "im": math.nan}, "entries must be finite"),
    "huge-int": (10**400, "entries must be finite"),
}


@pytest.mark.parametrize("kind", sorted(LAST_CELL_ERRORS))
@pytest.mark.parametrize("field", ["g1", "input_state"])
def test_bad_last_cell_of_a_d64_literal_is_named(field, kind):
    bad, message = LAST_CELL_ERRORS[kind]
    rng = np.random.default_rng(64)
    cells = [{"re": re, "im": im} for re, im in rng.standard_normal((64 * 64, 2)).tolist()]
    cells[-1] = bad
    if field == "g1":
        rows = [cells[i:i + 64] for i in range(0, 64 * 64, 64)]
        cfg, where = base_config(dim=64, g1=rows), "g1[63][63]"
    else:
        cfg, where = base_config(dim=64, input_state=cells[-64:]), "input_state[63]"
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert str(info.value) == f"{where}: {message}"


# ---------------------------------------------------------------- records

def test_complex_round_trip_is_exact():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    sol = NetworkSolution(*[v] * 8, None, 0.0, 0.0)
    record = json.loads("".join(json_pieces(build_run_record({}, sol))))
    for vector in record["solution"].values():
        np.testing.assert_array_equal(json_to_vector(vector), v)


def test_run_record_survives_json_round_trip():
    cfg = base_config(dim=1, g1="zero", g2="identity", m="identity", beta=0.1,
                      input_state="basis:0")
    net, psi = parse_config(cfg)
    sol = solve_closed_form(net, psi)
    record = build_run_record(cfg, sol, timestamp=None,
                              oracle={"iterations": 12, "relative_difference": 3.5e-11})
    assert json.loads(json.dumps(record)) == record
    assert record["transmitted_probability"] == pytest.approx(1.0, abs=1e-10)
    assert math.isfinite(record["denominator_condition"])
    assert "timestamp" not in record
    stamped = build_run_record(cfg, sol, timestamp="2026-01-01T00:00:00+00:00")
    assert stamped["timestamp"] == "2026-01-01T00:00:00+00:00"


def test_record_csv_layout():
    cfg = base_config(dim=1, g1="zero", g2="identity", m="identity", beta=0.1,
                      input_state="basis:0")
    net, psi = parse_config(cfg)
    record = build_run_record(cfg, solve_closed_form(net, psi))
    text = "".join(csv_pieces(record))
    lines = text.strip().split("\n")
    assert lines[0] == "quantity,component,re,im"
    names = {line.split(",")[0] for line in lines[1:]}
    assert {"psi_in", "psi1", "psi2", "psi4", "psi1_prime", "psi2_prime",
            "psi3_prime", "psi4_prime", "transmitted_probability"} <= names
