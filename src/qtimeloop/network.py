"""Two-coupler feedback network: problem container and closed-form solver.

A network couples the input amplitude to a loop that carries part of the
late-time output backwards through the propagator ``m``; ``g1`` and ``g2``
are the two competing forward channels between the couplers. The closed
form inverts the loop denominator (1 + beta^2 M G1 - alpha^2 M G2) once
and reads every internal amplitude off it. ``_arithmetic`` alone picks, by
dimension, what the closed form, the oracle's loop and their shared assembly
run on: Python ``complex`` at d=1, without numpy's per-call cost, whose
products keep IEEE signed zeros; numpy arrays at d >= 2, whose sums start at
+0.0. At d=1 every amplitude lies within a running error bound of the same
formulas evaluated at 50 digits from the same floats. States are checked
where they enter; the coupler inside runs unchecked.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    SingularMatrixError,
    SplitterParams,
    _abs_sq,
    _couple,
    _invert_scalar,
    _max_abs,
    _require_finite,
    as_operator,
    as_state,
    invert,
    norm_sq,
)


# 2^-1022: a squared norm below it has lost bits to subnormal rounding
_SMALLEST_NORMAL = sys.float_info.min


class SingularDenominatorError(SingularMatrixError):
    """The loop denominator cannot be inverted: an exactly self-annihilating loop."""


@dataclass(frozen=True)
class FeedbackNetwork:
    """One complete problem instance; operators are copied and frozen on entry."""

    g1: np.ndarray
    g2: np.ndarray
    m: np.ndarray
    splitter: SplitterParams
    dim: int = field(init=False)

    def __post_init__(self):
        d = None  # g1 sets the dimension of g2 and m
        for name in ("g1", "g2", "m"):
            op = as_operator(getattr(self, name), d).copy(order="K")  # C or Fortran, as given
            op.setflags(write=False)
            object.__setattr__(self, name, op)
            d = op.shape[0]
        object.__setattr__(self, "dim", d)


@dataclass(frozen=True)
class NetworkSolution:
    """All seven internal/external amplitudes plus numerical diagnostics.

    Unprimed vectors live at the early coupler, primed ones at the late
    coupler. ``denom_condition`` is the 1-norm condition number of the loop
    denominator (None when the solution came from the iterative path,
    which never forms it). The conservation residuals are
    |sum of squared norms in - out| at each coupler; they stay tiny even
    when the loop amplitudes dwarf the input.
    """

    psi_in: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    psi4: np.ndarray
    psi1p: np.ndarray
    psi2p: np.ndarray
    psi3p: np.ndarray
    psi4p: np.ndarray
    denom_condition: float | None
    conservation_residual_t1: float
    conservation_residual_t2: float


def _arithmetic(dim: int):
    """Both solvers' (to native, identity, product, inverse, squared norm, finite test, size)."""
    if dim == 1:
        return np.ndarray.item, 1, operator.mul, _invert_scalar, _abs_sq, cmath.isfinite, abs
    # invert and norm_sq are looked up per call, so a rebinding of either applies here
    return (np.asarray, np.eye(dim, dtype=complex), operator.matmul, invert, norm_sq,
            _all_finite, _max_abs)


def _all_finite(v) -> bool:
    return np.isfinite(v).all()


def _assemble(net, arithmetic, g1, g2, psi, psi1, psi2, psi4, denom_condition):
    """Derive the late-time amplitudes and conservation diagnostics in ``arithmetic``."""
    _, _, mul, _, norm, finite, _ = arithmetic
    psi1p, psi2p = mul(g1, psi1), mul(g2, psi2)
    _require_finite(finite(psi1p) and finite(psi2p), "state")  # _couple checks nothing
    psi3p, psi4p = _couple(net.splitter, psi1p, psi2p)
    vectors = (psi, psi1, psi2, psi4, psi1p, psi2p, psi3p, psi4p)
    n_in, n1, n2, n4, n1p, n2p, n3p, n4p = map(norm, vectors)
    balances = n1 + n2 - n_in - n4, n3p + n4p - n1p - n2p
    # squared norms past the float range leave inf - inf: that residual reads inf, not NaN
    residuals = [math.inf if math.isnan(balance) else abs(balance) for balance in balances]
    # one fresh (8, d) block: the stored psi is never the caller's array
    return NetworkSolution(*np.array(vectors).reshape(8, net.dim), denom_condition, *residuals)


def solve_closed_form(net: FeedbackNetwork, psi) -> NetworkSolution:
    """Solve the network exactly by inverting the loop denominator.

    With D = (1 + beta^2 M G1 - alpha^2 M G2)^-1 the early amplitudes are
    psi1 = alpha D (1 - M G2) psi and psi2 = -i beta D (1 + M G1) psi.
    psi4 then follows from the loop relation
    psi4 = alpha M G2 psi2 - i beta M G1 psi1, which keeps a
    non-invertible ``m`` perfectly usable. Raises
    :class:`SingularDenominatorError` when D cannot be formed; that is a
    physical resonance, not something to regularize away.
    """
    arithmetic = native, eye, mul, inverse, *_ = _arithmetic(net.dim)
    m, g1, g2, psi = map(native, (net.m, net.g1, net.g2, as_state(psi, net.dim)))
    a, b = net.splitter.alpha, net.splitter.beta
    mg1, mg2 = mul(m, g1), mul(m, g2)
    try:
        d_op, condition = inverse(eye + b * b * mg1 - a * a * mg2)
    except SingularMatrixError as exc:
        message = f"loop denominator is singular: {exc}"
        raise SingularDenominatorError(message, condition=exc.condition) from exc
    psi1 = a * mul(d_op, mul(eye - mg2, psi))
    psi2 = -1j * b * mul(d_op, mul(eye + mg1, psi))
    psi4 = a * mul(mg2, psi2) - 1j * b * mul(mg1, psi1)
    return _assemble(net, arithmetic, g1, g2, psi, psi1, psi2, psi4, condition)


def verify_fixed_point(net: FeedbackNetwork, sol: NetworkSolution, tol: float = 1e-10) -> float:
    """Max residual of the governing equations over a candidate solution.

    Re-derives psi1/psi2 from the early coupler, the primed amplitudes from
    the channels and the late coupler, and the loop return itself, all from
    the stored vectors; returns the largest max-norm mismatch. A faithful
    solution stays at or below ``tol``; a RuntimeWarning is emitted when it
    does not. Raises ValueError when any of the eight vectors is not a
    finite state of the network's dimension.
    """
    stored = sol.psi_in, sol.psi1, sol.psi2, sol.psi4, sol.psi1p, sol.psi2p, sol.psi3p, sol.psi4p
    psi, psi1, psi2, psi4, psi1p, psi2p, psi3p, psi4p = (as_state(v, net.dim) for v in stored)
    early1, early2 = _couple(net.splitter, psi, psi4)
    late3, late4 = _couple(net.splitter, psi1p, psi2p)
    residual = max(
        _max_abs(psi1 - early1),
        _max_abs(psi2 - early2),
        _max_abs(psi1p - net.g1 @ psi1),
        _max_abs(psi2p - net.g2 @ psi2),
        _max_abs(psi3p - late3),
        _max_abs(psi4p - late4),
        _max_abs(psi4 - net.m @ psi4p),
    )
    if residual > tol:
        message = f"fixed-point residual {residual:.3e} exceeds tol {tol:.1e}"
        warnings.warn(message, RuntimeWarning)
    return residual


def transmitted_probability(sol: NetworkSolution) -> float:
    """norm^2(psi3') / norm^2(psi_in), taken on both states scaled by exact powers
    of two when a squared norm leaves the normal float range."""
    psi_in, psi3p = sol.psi_in, sol.psi3p
    denom = norm_sq(psi_in)
    if denom < _SMALLEST_NORMAL:  # every |entry| is below 2^-511: lift all to normal squares
        if not psi_in.any():
            raise ValueError("input state has zero norm")
        psi_in, psi3p = 2.0**600 * psi_in, 2.0**600 * psi3p
    else:
        numerator = norm_sq(psi3p)
        ratio = numerator / denom
        if numerator >= _SMALLEST_NORMAL and math.isfinite(ratio) and denom < math.inf:
            return ratio
    # the largest |entry| of psi_in lands in [1, 2); halving first keeps that |entry| finite
    scale = math.ldexp(1.0, -math.frexp(_max_abs(0.5 * psi_in))[1])
    return norm_sq(scale * psi3p) / norm_sq(scale * psi_in)
