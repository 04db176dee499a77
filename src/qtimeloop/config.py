"""JSON problem descriptions for the command-line front end.

A config names the two forward channels, the backward propagator, exactly
one of the coupler amplitudes, and the input state. Operators may be given
as presets ("zero", "identity", "phase:<radians>", "random-unitary:<seed>")
or as explicit matrices with {re, im} entries, so every worked case is
expressible without writing matrices by hand.

A literal becomes one array built from a nested comprehension, one
``_parse_entry`` call per cell; the cell's location (``g1[0][1]``) is
formatted only for an error. Every entry must be finite: json.load accepts
``NaN`` and ``Infinity``, and integers of any size.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .linalg import DIM_CAP, SplitterParams, norm_sq, random_unitary
from .network import FeedbackNetwork


class ConfigError(ValueError):
    """Malformed or inconsistent problem description."""


_ALLOWED_KEYS = {"dim", "g1", "g2", "m", "alpha", "beta", "input_state"}
_PARTS = {"re", "im"}


def load_config(path) -> dict:
    """Read a JSON config file, normalizing read errors to ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def parse_config(raw: dict) -> tuple[FeedbackNetwork, np.ndarray]:
    """Validate a config dict and build the network plus input state."""
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("dim", "g1", "g2", "m", "input_state"):
        if key not in raw:
            raise ConfigError(f"config is missing {key!r}")
    dim = raw["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or not 1 <= dim <= DIM_CAP:
        raise ConfigError(f"dim must be an integer in [1, {DIM_CAP}]")
    splitter = _parse_splitter(raw)
    g1 = _parse_operator(raw["g1"], dim, "g1")
    g2 = _parse_operator(raw["g2"], dim, "g2")
    m = _parse_operator(raw["m"], dim, "m")
    psi = _parse_state(raw["input_state"], dim)
    if norm_sq(psi) == 0.0:
        raise ConfigError("input_state must have nonzero norm")
    return FeedbackNetwork(g1=g1, g2=g2, m=m, splitter=splitter), psi


def _parse_splitter(raw: dict) -> SplitterParams:
    has_alpha = "alpha" in raw
    has_beta = "beta" in raw
    if has_alpha == has_beta:
        raise ConfigError("give exactly one of alpha or beta")
    key = "alpha" if has_alpha else "beta"
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number")
    # false for NaN; an integer compares exactly, however large
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{key} must lie in [0, 1]")
    value = float(value)
    return SplitterParams.from_alpha(value) if has_alpha else SplitterParams.from_beta(value)


def _parse_entry(obj, name: str, *index: int) -> complex:
    """One literal entry; its location ``name[i][j]`` is spelled out only in an error.

    An {re, im} object, the common form, is tested first; it cannot also be
    a number.
    """
    if isinstance(obj, dict):
        if not obj.keys() <= _PARTS:
            extra = set(obj) - _PARTS
            raise ConfigError(f"{_where(name, index)}: unexpected entry keys {sorted(extra)}")
        re = obj.get("re", 0.0)
        im = obj.get("im", 0.0)
        if (
            isinstance(re, bool) or isinstance(im, bool)
            or not isinstance(re, (int, float)) or not isinstance(im, (int, float))
        ):
            raise ConfigError(f"{_where(name, index)}: re/im must be numbers")
    elif isinstance(obj, bool):
        raise ConfigError(f"{_where(name, index)}: booleans are not numbers")
    elif isinstance(obj, (int, float)):
        re, im = obj, 0.0
    else:
        raise ConfigError(f"{_where(name, index)}: expected a number or an {{re, im}} object")
    try:
        return complex(float(re), float(im))
    except OverflowError:  # an integer beyond the largest double
        raise ConfigError(f"{_where(name, index)}: entries must be finite") from None


def _where(name: str, index) -> str:
    return name + "".join(f"[{k}]" for k in index)


def _finite(values: np.ndarray, name: str) -> np.ndarray:
    """Pass a parsed literal through, or name its first NaN/Infinity entry
    (json.load accepts both tokens)."""
    finite = np.isfinite(values)
    if not finite.all():
        first = np.argwhere(~finite)[0].tolist()
        raise ConfigError(f"{_where(name, first)}: entries must be finite")
    return values


def _parse_operator(spec, dim: int, name: str) -> np.ndarray:
    if isinstance(spec, str):
        return _operator_preset(spec, dim, name)
    if isinstance(spec, list):
        if len(spec) != dim or any(not isinstance(row, list) or len(row) != dim for row in spec):
            raise ConfigError(f"{name}: matrix literal must be {dim}x{dim}")
        return _finite(np.array([
            [_parse_entry(cell, name, i, j) for j, cell in enumerate(row)]
            for i, row in enumerate(spec)
        ], dtype=complex), name)
    raise ConfigError(f"{name}: expected a preset string or a matrix literal")


def _operator_preset(spec: str, dim: int, name: str) -> np.ndarray:
    if spec == "zero":
        return np.zeros((dim, dim), dtype=complex)
    if spec == "identity":
        return np.eye(dim, dtype=complex)
    if spec.startswith("phase:"):
        angle = _preset_number(spec, float, name)
        if not math.isfinite(angle):
            raise ConfigError(f"{name}: phase angle must be finite")
        return cmath.exp(1j * angle) * np.eye(dim, dtype=complex)
    if spec.startswith("random-unitary:"):
        seed = _preset_number(spec, int, name)
        if seed < 0:
            raise ConfigError(f"{name}: random-unitary seed must be non-negative, got {spec!r}")
        return random_unitary(dim, seed)
    raise ConfigError(f"{name}: unknown preset {spec!r}")


def _preset_number(spec: str, kind, name: str):
    """The number after the colon of a preset such as ``phase:1.3``, read by ``kind``."""
    preset, _, text = spec.partition(":")
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: bad {preset} preset {spec!r}") from exc


def _parse_state(spec, dim: int) -> np.ndarray:
    if isinstance(spec, str):
        if spec.startswith("basis:"):
            index = _preset_number(spec, int, "input_state")
            if not 0 <= index < dim:
                raise ConfigError(f"input_state: basis index {index} out of range for dim {dim}")
            out = np.zeros(dim, dtype=complex)
            out[index] = 1.0
            return out
        raise ConfigError(f"input_state: unknown preset {spec!r}")
    if isinstance(spec, list):
        if len(spec) != dim:
            raise ConfigError(f"input_state: vector literal must have length {dim}")
        return _finite(np.array(
            [_parse_entry(cell, "input_state", i) for i, cell in enumerate(spec)], dtype=complex
        ), "input_state")
    raise ConfigError("input_state: expected 'basis:<i>' or a vector literal")
