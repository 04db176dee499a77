import json
import math

import numpy as np
import pytest

from qtimeloop.config import ConfigError, load_config, parse_config
from qtimeloop.linalg import is_unitary
from qtimeloop.network import solve_closed_form
from qtimeloop.records import build_run_record, record_to_csv, vector_to_json


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
    assert is_unitary(net_a.g1, 1e-10)


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


def test_parse_rejects_bad_dim_and_amplitudes():
    with pytest.raises(ConfigError):
        parse_config(base_config(dim=0))
    with pytest.raises(ConfigError):
        parse_config(base_config(dim=2.5))
    with pytest.raises(ConfigError):
        parse_config(base_config(beta=1.5))
    with pytest.raises(ConfigError):
        parse_config(base_config(beta="0.5"))


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


# ---------------------------------------------------------------- records

def test_complex_round_trip_is_exact():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    np.testing.assert_array_equal(json_to_vector(vector_to_json(v)), v)


def test_run_record_survives_json_round_trip():
    cfg = base_config(dim=1, g1="zero", g2="identity", m="identity", beta=0.1,
                      input_state="basis:0")
    net, psi = parse_config(cfg)
    sol = solve_closed_form(net, psi)
    record = build_run_record(cfg, sol, version="0.1.0", timestamp=None,
                              oracle={"iterations": 12, "relative_difference": 3.5e-11})
    assert json.loads(json.dumps(record)) == record
    assert record["transmitted_probability"] == pytest.approx(1.0, abs=1e-10)
    assert math.isfinite(record["denominator_condition"])
    assert "timestamp" not in record
    stamped = build_run_record(cfg, sol, version="0.1.0", timestamp="2026-01-01T00:00:00+00:00")
    assert stamped["timestamp"] == "2026-01-01T00:00:00+00:00"


def test_record_csv_layout():
    cfg = base_config(dim=1, g1="zero", g2="identity", m="identity", beta=0.1,
                      input_state="basis:0")
    net, psi = parse_config(cfg)
    record = build_run_record(cfg, solve_closed_form(net, psi), version="0.1.0")
    text = record_to_csv(record)
    lines = text.strip().split("\n")
    assert lines[0] == "quantity,component,re,im"
    names = {line.split(",")[0] for line in lines[1:]}
    assert {"psi_in", "psi1", "psi2", "psi4", "psi1_prime", "psi2_prime",
            "psi3_prime", "psi4_prime", "transmitted_probability"} <= names
