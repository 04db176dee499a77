"""Loop-unrolling solver: sums traversals of the backward loop.

Substituting the early-coupler relations into the loop return gives the
affine fixed-point equation psi4 = T psi4 + S psi with
T = M (alpha^2 G2 - beta^2 G1) and S = -i alpha beta M (G1 + G2).
Iterating from psi4 = 0 adds one loop traversal per step, so the partial
sums are truncated geometric series and the converged iterate certifies
the closed-form answer without ever forming the denominator inverse.

One loop body runs the recurrence at every d; the dimension picks its
operands once. At d=1 they are Python ``complex`` scalars, multiplied with
``operator.mul`` and sized by Python's abs, without numpy's per-call
dispatch on every traversal. At d >= 2 they are arrays, multiplied with
``operator.matmul`` and sized by the max-norm. A converged iterate is within
||(I - T)^-1|| (||T|| tol + one traversal's rounding) of the fixed point, in
the max-norm and its induced norm. The iterate stays in that arithmetic
through the coupler and the assembly, which the closed form shares.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import _couple, _max_abs, as_state, spectral_radius
from .network import FeedbackNetwork, NetworkSolution, _arithmetic, _assemble

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1_000_000


@dataclass(frozen=True)
class IterationReport:
    """One oracle run. ``loop_spectral_radius_estimate`` is exact, not an estimate:
    max|eig(T)| from :func:`qtimeloop.linalg.spectral_radius`."""

    iterations_used: int
    final_update_norm: float
    loop_spectral_radius_estimate: float
    converged: bool


class NotConvergedError(Exception):
    """Iteration budget exhausted or the iterate blew up; carries the report."""

    def __init__(self, message: str, report: IterationReport):
        super().__init__(message)
        self.report = report


def loop_map(net: FeedbackNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Return (T, S) of the fixed-point equation psi4 = T psi4 + S psi."""
    a, b = net.splitter.alpha, net.splitter.beta
    t = net.m @ (a * a * net.g2 - b * b * net.g1)
    s = -1j * a * b * (net.m @ (net.g1 + net.g2))
    return t, s


def _iterate(t, drive, tol, max_iter):
    """psi4 <- T psi4 + drive from psi4 = 0; returns (psi4, iterations, update, converged)."""
    if drive.shape[0] == 1:
        t, x, c, mul, size = complex(t[0, 0]), 0j, complex(drive[0]), operator.mul, abs
    else:
        x, c, mul, size = np.zeros(drive.shape[0], dtype=complex), drive, operator.matmul, _max_abs
    inf = math.inf
    # an expanding loop overflows in its last step; the radius warning and the error say so
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, max_iter + 1):
            new = mul(t, x) + c
            try:
                update = size(new - x)
            except OverflowError:  # Python's abs: finite parts, modulus past the float range
                update = inf
            x = new
            if not tol < update < inf:  # also true for a NaN update
                break
    return x, iterations, update, update <= tol


def solve_by_iteration(
    net: FeedbackNetwork,
    psi,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[NetworkSolution, IterationReport]:
    """Solve by unrolling the loop until the psi4 update falls below ``tol``.

    Starts from psi4 = 0, the no-traversal history. Convergence is
    guaranteed when the loop spectral radius max|eig(T)| is below one; it is
    checked up front and a RuntimeWarning recorded otherwise (the closed
    form may still exist there, the series just stops representing it).
    The update max-norm is the cheap per-step test; certify the result with
    :func:`qtimeloop.network.verify_fixed_point` when it matters.

    Returns ``(solution, report)``. Raises :class:`NotConvergedError` with
    the report attached when the budget runs out or the iterate stops being
    finite. The solution's ``denom_condition`` is None: no denominator is
    ever formed here.
    """
    psi = as_state(psi, net.dim)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0.0 <= tol < math.inf:  # false for NaN
        raise ValueError("tol must be finite and non-negative")
    t, s = loop_map(net)
    drive = s @ psi
    radius = spectral_radius(t)
    # an undriven loop (alpha=1 or g2=-g1 at a balanced coupler) converges
    # in one step no matter what T looks like
    if radius >= 1.0 and np.any(drive != 0.0):
        warnings.warn(
            f"loop spectral radius {radius:.4g} >= 1 (1 - radius = {1 - radius:.3g}); "
            "iteration may not converge",
            RuntimeWarning,
        )
    psi4, iterations, update_norm, converged = _iterate(t, drive, tol, max_iter)
    report = IterationReport(iterations, update_norm, radius, converged)
    if not converged:
        raise NotConvergedError(
            f"no convergence after {iterations} iterations (last update {update_norm:.3e}) "
            f"[loop spectral radius {radius:.4g}, 1 - radius {1 - radius:.3g}]",
            report,
        )
    arithmetic = native, *_ = _arithmetic(net.dim)
    g1, g2, psi = map(native, (net.g1, net.g2, psi))
    psi1, psi2 = _couple(net.splitter, psi, psi4)
    return _assemble(net, arithmetic, g1, g2, psi, psi1, psi2, psi4, None), report
