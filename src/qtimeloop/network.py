"""Two-coupler feedback network: problem container and closed-form solver.

A network couples the input amplitude to a loop that carries part of the
late-time output backwards through the propagator ``m``; ``g1`` and ``g2``
are the two competing forward channels between the couplers. The closed
form inverts the loop denominator (1 + beta^2 M G1 - alpha^2 M G2) once
and reads every internal amplitude off it. At d=1 it runs on Python
``complex`` scalars, bit-equal to the 1x1 matrix path without numpy's
per-call cost; the oracle's d=1 solutions share that scalar assembly.
The d=1 operator and state checks and squared norms around a solve run on
Python scalars too (see :mod:`qtimeloop.linalg`).
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    SingularMatrixError,
    SplitterParams,
    _abs_sq,
    _invert_scalar,
    _max_abs,
    _require_finite,
    as_operator,
    as_state,
    couple,
    invert,
    norm_sq,
    readonly_copy,
)


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
        g1 = as_operator(self.g1)
        d = g1.shape[0]
        object.__setattr__(self, "g1", readonly_copy(g1))
        object.__setattr__(self, "g2", readonly_copy(as_operator(self.g2, d)))
        object.__setattr__(self, "m", readonly_copy(as_operator(self.m, d)))
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


def _assemble_solution(net, psi, psi1, psi2, psi4, denom_condition):
    """Derive the late-time amplitudes and conservation diagnostics."""
    if net.dim == 1:
        return _assemble_scalar(net, *(v.item() for v in (psi, psi1, psi2, psi4)), denom_condition)
    psi1p = net.g1 @ psi1
    psi2p = net.g2 @ psi2
    psi3p, psi4p = couple(net.splitter, psi1p, psi2p)
    res_t1 = abs(norm_sq(psi1) + norm_sq(psi2) - norm_sq(psi) - norm_sq(psi4))
    res_t2 = abs(norm_sq(psi3p) + norm_sq(psi4p) - norm_sq(psi1p) - norm_sq(psi2p))
    vectors = (psi.copy(), psi1, psi2, psi4, psi1p, psi2p, psi3p, psi4p)
    return NetworkSolution(*vectors, denom_condition, res_t1, res_t2)


def _assemble_scalar(net, psi, psi1, psi2, psi4, denom_condition):
    """:func:`_assemble_solution` at d=1, on Python complex scalars. A 1x1 product
    [x] @ [y] is 0j + x * y: numpy's sum starts at +0.0, turning a -0.0 into +0.0."""
    a, b = net.splitter.alpha, net.splitter.beta
    psi1p, psi2p = 0j + net.g1.item() * psi1, 0j + net.g2.item() * psi2
    _require_finite(cmath.isfinite(psi1p) and cmath.isfinite(psi2p), "state")  # as couple does
    psi3p, psi4p = a * psi1p - 1j * b * psi2p, a * psi2p - 1j * b * psi1p
    vectors = (psi, psi1, psi2, psi4, psi1p, psi2p, psi3p, psi4p)
    n_in, n1, n2, n4, n1p, n2p, n3p, n4p = map(_abs_sq, vectors)
    residuals = abs(n1 + n2 - n_in - n4), abs(n3p + n4p - n1p - n2p)
    return NetworkSolution(*np.array(vectors).reshape(8, 1), denom_condition, *residuals)


def solve_closed_form(net: FeedbackNetwork, psi) -> NetworkSolution:
    """Solve the network exactly by inverting the loop denominator.

    With D = (1 + beta^2 M G1 - alpha^2 M G2)^-1 the early amplitudes are
    psi1 = alpha D (1 - M G2) psi and psi2 = -i beta D (1 + M G1) psi.
    psi4 then follows from the loop relation
    psi4 = alpha M G2 psi2 - i beta M G1 psi1, which keeps a
    non-invertible ``m`` perfectly usable. Raises
    :class:`SingularDenominatorError` when D cannot be formed; that is a
    physical resonance, not something to regularize away. At d=1 the same
    expressions run on Python complex scalars, bit-equal to the 1x1 matrices.
    """
    psi = as_state(psi, net.dim)
    a, b = net.splitter.alpha, net.splitter.beta
    try:
        if net.dim == 1:
            m, psi = net.m.item(), psi.item()
            mg1, mg2 = 0j + m * net.g1.item(), 0j + m * net.g2.item()
            d = _invert_scalar(1 + b * b * mg1 - a * a * mg2)
            psi1 = a * (0j + d * (0j + (1 - mg2) * psi))
            psi2 = -1j * b * (0j + d * (0j + (1 + mg1) * psi))
            psi4 = a * (0j + mg2 * psi2) - 1j * b * (0j + mg1 * psi1)
            return _assemble_scalar(net, psi, psi1, psi2, psi4, 1.0)
        eye = np.eye(net.dim, dtype=complex)
        mg1 = net.m @ net.g1
        mg2 = net.m @ net.g2
        d_op, condition = invert(eye + b * b * mg1 - a * a * mg2)
    except SingularMatrixError as exc:
        raise SingularDenominatorError(
            f"loop denominator is singular: {exc}", condition=exc.condition
        ) from exc
    psi1 = a * (d_op @ ((eye - mg2) @ psi))
    psi2 = -1j * b * (d_op @ ((eye + mg1) @ psi))
    psi4 = a * (mg2 @ psi2) - 1j * b * (mg1 @ psi1)
    return _assemble_solution(net, psi, psi1, psi2, psi4, condition)


def verify_fixed_point(net: FeedbackNetwork, sol: NetworkSolution, tol: float = 1e-10) -> float:
    """Max residual of the governing equations over a candidate solution.

    Re-derives psi1/psi2 from the early coupler, the primed amplitudes from
    the channels and the late coupler, and the loop return itself, all from
    the stored vectors; returns the largest max-norm mismatch. A faithful
    solution stays at or below ``tol``; a RuntimeWarning is emitted when it
    does not.
    """
    early1, early2 = couple(net.splitter, sol.psi_in, sol.psi4)
    late3, late4 = couple(net.splitter, sol.psi1p, sol.psi2p)
    residual = max(
        _max_abs(sol.psi1 - early1),
        _max_abs(sol.psi2 - early2),
        _max_abs(sol.psi1p - net.g1 @ sol.psi1),
        _max_abs(sol.psi2p - net.g2 @ sol.psi2),
        _max_abs(sol.psi3p - late3),
        _max_abs(sol.psi4p - late4),
        _max_abs(sol.psi4 - net.m @ sol.psi4p),
    )
    if residual > tol:
        warnings.warn(
            f"fixed-point residual {residual:.3e} exceeds tol {tol:.1e}", RuntimeWarning
        )
    return residual


def transmitted_probability(sol: NetworkSolution) -> float:
    """norm^2(psi3') / norm^2(psi_in)."""
    denom = norm_sq(sol.psi_in)
    if denom == 0.0:
        raise ValueError("input state has zero norm")
    return norm_sq(sol.psi3p) / denom
