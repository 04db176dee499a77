"""Loop-unrolling solver: sums traversals of the backward loop.

Substituting the early-coupler relations into the loop return gives the
affine fixed-point equation psi4 = T psi4 + S psi with
T = M (alpha^2 G2 - beta^2 G1) and S = -i alpha beta M (G1 + G2).
Iterating from psi4 = 0 adds one loop traversal per step, so the partial
sums are truncated geometric series and the converged iterate certifies
the closed-form answer without ever forming the denominator inverse.

At d=1 the recurrence runs on Python ``complex`` scalars: the same multiply
and add as the 1x1 matrix loop, without numpy's per-call dispatch on every
traversal. Python's abs and numpy's |z| may differ in the last bits, so steps
near a stopping test are sized by numpy; the results agree bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import as_state, couple, spectral_radius
from .network import FeedbackNetwork, NetworkSolution, _assemble_solution

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1_000_000
# d=1 steps this close (relative) to tol are measured again the numpy way
_AGREE = 1.0 + 1e-12


@dataclass(frozen=True)
class IterationReport:
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


def _iterate_scalar(t, drive, tol, max_iter):
    """d=1 recurrence x <- t x + c, bit for bit what :func:`_iterate_matrix` returns."""
    t, c = complex(t[0, 0]), complex(drive[0])
    x = step = 0j
    near_tol = tol * _AGREE
    for iterations in range(1, max_iter + 1):
        new = t * x + c
        step, x = new - x, new
        try:
            if near_tol < abs(step) < 1e308:
                continue
        except OverflowError:  # finite parts, modulus past the float range
            pass
        update = float(np.abs(np.array([step]))[0])
        if update <= tol or not math.isfinite(update):
            break
    update = float(np.abs(np.array([step]))[0])
    return np.array([x]), iterations, update, update <= tol


def _iterate_matrix(t, drive, tol, max_iter):
    """psi4 <- T psi4 + drive from psi4 = 0; returns (psi4, iterations, update, converged)."""
    x = np.zeros(drive.shape[0], dtype=complex)
    for iterations in range(1, max_iter + 1):
        new = t @ x + drive
        update = float(np.abs(new - x).max())
        x = new
        if update <= tol or not math.isfinite(update):
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
    iterate = _iterate_scalar if net.dim == 1 else _iterate_matrix
    psi4, iterations, update_norm, converged = iterate(t, drive, tol, max_iter)
    report = IterationReport(iterations, update_norm, radius, converged)
    if not converged:
        raise NotConvergedError(
            f"no convergence after {iterations} iterations (last update {update_norm:.3e}) "
            f"[loop spectral radius {radius:.4g}, 1 - radius {1 - radius:.3g}]",
            report,
        )
    psi1, psi2 = couple(net.splitter, psi, psi4)
    solution = _assemble_solution(net, psi, psi1, psi2, psi4, denom_condition=None)
    return solution, report
