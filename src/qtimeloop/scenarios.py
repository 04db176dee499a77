"""Named constructions for the worked cases of the feedback network.

Covers the transparent and fully-reflecting coupler limits, the
equal-path case g2 = -g1, both realizations of the blocked-forward-channel
("grandfather") setup, the undo construction m = -g1^{-1}, the
small-coupling expansion with a finite-difference cross-check, and the
resonance lineshape scan with width extraction.

Each worked case is one function (``special_case``, ``grandfather_case``,
``undo_case``, ``perturbative_case``) returning ``(checks, fields)``:
``checks`` lists ``(label, residual, tolerance)`` per identity and
``fields`` the case's result values. The identities, tolerances and seeded
instances are written here only; ``qtimeloop scenario`` just renders them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    SplitterParams,
    _max_abs,
    _max_relative_difference,
    as_state,
    invert,
    norm_sq,
    random_unitary,
)
from .network import FeedbackNetwork, NetworkSolution, solve_closed_form, transmitted_probability


@dataclass(frozen=True)
class GrandfatherParams:
    """Parameters of the blocked-forward-channel setup.

    beta is the coupler cross amplitude, theta the dynamical phase
    accumulated between the couplers, and phi the extra phase picked up on
    the backward leg. theta cancels out of every observable; it is kept
    explicit because that cancellation is itself worth regression-testing.
    """

    beta: float
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie strictly inside (0, 1)")
        if self.beta < 1e-75:  # below ~1e-77 the lineshape's alpha^2 / beta^4 overflows
            raise ValueError(f"beta {self.beta:g} is below 1e-75, out of the lineshape's range")
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("theta and phi must be finite")


def build_grandfather(p: GrandfatherParams) -> FeedbackNetwork:
    """d=1 network with the forward channel blocked (g1 = 0).

    g2 = e^{-i theta} is plain phase evolution and m = e^{+i(theta + phi)}
    undoes it on the way back up to the extra phase phi, so m g2 = e^{i phi}.
    """
    g1 = np.zeros((1, 1), dtype=complex)
    g2 = np.array([[cmath.exp(-1j * p.theta)]])
    m = np.array([[cmath.exp(1j * (p.theta + p.phi))]])
    return FeedbackNetwork(g1=g1, g2=g2, m=m, splitter=SplitterParams.from_beta(p.beta))


def grandfather_transmission(beta: float, phi: float) -> float:
    """Analytic lineshape 1 / (1 + 4 (alpha^2/beta^4) sin^2(phi/2))."""
    alpha_sq = 1.0 - beta * beta
    s = math.sin(0.5 * phi)
    return 1.0 / (1.0 + 4.0 * alpha_sq / beta**4 * s * s)


def predicted_fwhm(beta: float) -> float:
    """Small-coupling width 2 beta^2 / alpha of the transmission peak."""
    return 2.0 * beta * beta / math.sqrt(1.0 - beta * beta)


def grandfather_amplitude_ratios(p: GrandfatherParams) -> tuple[float, float, float]:
    """(|psi1|, |psi2|, |psi4|) / |psi| from a full solve.

    At phi = 0 these come out as (0, 1/beta, alpha/beta): the loop runs a
    current much larger than the input while both coupler balances hold.
    """
    return _amplitude_ratios(solve_closed_form(build_grandfather(p), np.ones(1, dtype=complex)))


def _amplitude_ratios(sol: NetworkSolution) -> tuple[float, float, float]:
    scale = math.sqrt(norm_sq(sol.psi_in))
    return (
        math.sqrt(norm_sq(sol.psi1)) / scale,
        math.sqrt(norm_sq(sol.psi2)) / scale,
        math.sqrt(norm_sq(sol.psi4)) / scale,
    )


def build_undo(g1, g2, splitter: SplitterParams) -> FeedbackNetwork:
    """Network whose backward propagator inverts g1: m = -g1^{-1}.

    Solving it yields psi3' = g1 psi for any coupler setting. Raises
    :class:`qtimeloop.linalg.SingularMatrixError` when g1 is not invertible.
    """
    inv_g1, _ = invert(g1)
    return FeedbackNetwork(g1=g1, g2=g2, m=-inv_g1, splitter=splitter)


def _random_state(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / math.sqrt(norm_sq(v))


def _random_instance(seed: int, dim: int):
    """(g1, g2, m, psi) drawn at seeds seed ... seed+3, each from its own generator."""
    return (
        random_unitary(dim, seed),
        random_unitary(dim, seed + 1),
        random_unitary(dim, seed + 2),
        _random_state(seed + 3, dim),
    )


# beta of each exact limit; no-feedback is alpha = 1
_LIMIT_BETA = {"no-feedback": 0.0, "full-feedback": 1.0, "equal-paths": 0.6}
SPECIAL_CASES = tuple(_LIMIT_BETA)


def special_case(name: str, seed: int, dim: int = 4):
    """Check one exact limit on a seeded random instance.

    no-feedback (alpha=1) must reproduce g1 psi, full-feedback (beta=1)
    -g2 psi, and equal-paths (g2 = -g1) g1 psi for any m. A failure is
    reported in the checks, never raised.
    """
    g1, g2, m, psi = _random_instance(seed, dim)
    if name == "equal-paths":
        g2 = -g1
    net = FeedbackNetwork(g1, g2, m, SplitterParams.from_beta(_LIMIT_BETA[name]))
    expected = -(g2 @ psi) if name == "full-feedback" else g1 @ psi
    residual = _max_abs(solve_closed_form(net, psi).psi3p - expected)
    tol = 1e-11
    checks = [("psi3' matches the exact limit", residual, tol)]
    return checks, {"residual": residual, "tolerance": tol}


def grandfather_case(beta: float, theta: float, phi: float):
    """Transmission against the lineshape formula and, at phi = 0, the
    amplitude ratios (0, 1/beta, alpha/beta), all from one solve."""
    net = build_grandfather(GrandfatherParams(beta, theta, phi))
    sol = solve_closed_form(net, np.ones(1, dtype=complex))
    ratios = _amplitude_ratios(sol)
    transmitted = transmitted_probability(sol)
    analytic = grandfather_transmission(beta, phi)
    tol = 1e-10
    checks = [("transmitted matches the lineshape formula", abs(transmitted - analytic), tol)]
    if phi == 0.0:
        alpha = math.sqrt(1.0 - beta * beta)
        expected = (0.0, 1.0 / beta, alpha / beta)
        labels = ("|psi1/psi| = 0", "|psi2/psi| = 1/beta", "|psi4/psi| = alpha/beta")
        checks += [
            (label, abs(got - want), tol)
            for label, got, want in zip(labels, ratios, expected)
        ]
    return checks, {"ratios": list(ratios), "transmitted": transmitted, "analytic": analytic}


def undo_case(seed: int, dim: int, beta: float):
    """psi3' = g1 psi on a seeded :func:`build_undo` network.

    psi is drawn at seed+2, unlike :func:`_random_instance` (seed+3), so
    that recorded undo results stay reproducible.
    """
    g1 = random_unitary(dim, seed)
    g2 = random_unitary(dim, seed + 1)
    net = build_undo(g1, g2, SplitterParams.from_beta(beta))
    psi = _random_state(seed + 2, dim)
    residual = _max_abs(solve_closed_form(net, psi).psi3p - g1 @ psi)
    tol = 1e-11
    checks = [("psi3' = g1 psi (backward trip cancels the loop)", residual, tol)]
    return checks, {"residual": residual, "tolerance": tol}


def perturbative_check(g1, g2, m, psi, gamma: float = 1e-4):
    """Compare the numeric d psi3'/d gamma at gamma = beta^2 = 0 against
    the first-order formula -(g1 + g2)(1 - m g2)^{-1}(1 + m g1) psi.

    The derivative is estimated from one-sided differences at gamma and
    gamma/2 combined by Richardson extrapolation, which cancels the
    O(gamma) term and leaves an O(gamma^2) error. Returns
    ``(numeric, analytic, relative_error)`` where the relative error falls
    back to the absolute one when the analytic vector vanishes (g2 = -g1).
    Raises :class:`qtimeloop.linalg.SingularMatrixError` when (1 - m g2)
    is resonant.
    """
    net = FeedbackNetwork(g1, g2, m, SplitterParams.from_beta(0.0))  # checks g1, g2, m
    psi = as_state(psi, net.dim)
    if not 0.0 < gamma <= 0.01:
        raise ValueError("gamma must lie in (0, 0.01]")
    g1, g2, m = net.g1, net.g2, net.m
    eye = np.eye(net.dim, dtype=complex)
    resolvent, _ = invert(eye - m @ g2)
    analytic = -(g1 + g2) @ (resolvent @ ((eye + m @ g1) @ psi))

    def output(gam: float) -> np.ndarray:
        splitter = SplitterParams.from_beta(math.sqrt(gam))
        return solve_closed_form(FeedbackNetwork(g1, g2, m, splitter), psi).psi3p

    base = solve_closed_form(net, psi).psi3p
    d_full = (output(gamma) - base) / gamma
    d_half = (output(gamma / 2.0) - base) / (gamma / 2.0)
    numeric = 2.0 * d_half - d_full
    return numeric, analytic, _max_relative_difference(analytic, numeric)


def perturbative_case(seed: int, dim: int, gamma: float):
    """:func:`perturbative_check` on a seeded random instance."""
    _, _, relative_error = perturbative_check(*_random_instance(seed, dim), gamma=gamma)
    tol = 1e-6
    checks = [("finite-difference derivative matches the first-order formula", relative_error, tol)]
    return checks, {"relative_error": relative_error, "tolerance": tol}


@dataclass(frozen=True)
class PhaseScanResult:
    """Transmission sampled over phi, with width extraction when possible."""

    points: tuple[tuple[float, float], ...]
    fwhm_numeric: float | None
    fwhm_predicted: float


def phase_scan(p: GrandfatherParams, phi_min: float, phi_max: float, n_points: int) -> PhaseScanResult:
    """Solve the grandfather network on an inclusive, evenly spaced phi grid.

    Points come back sorted ascending in phi. The numeric width is read off
    the half-maximum crossings by linear interpolation and is None whenever
    either crossing falls outside the window. Grid density is the caller's
    responsibility; keep a couple thousand points across the peak for an
    honest comparison with ``predicted_fwhm``.
    """
    if p.phi != 0.0:
        raise ValueError("phase_scan sweeps phi itself; p.phi must be 0")
    if n_points < 3:
        raise ValueError("need at least 3 points")
    if not (math.isfinite(phi_min) and math.isfinite(phi_max)) or phi_min >= phi_max:
        raise ValueError("invalid range: need finite phi_min < phi_max")
    phis = np.linspace(phi_min, phi_max, n_points)
    unit = np.ones(1, dtype=complex)
    transmitted = np.empty(n_points)
    for i, phi in enumerate(phis):
        net = build_grandfather(GrandfatherParams(beta=p.beta, theta=p.theta, phi=float(phi)))
        transmitted[i] = transmitted_probability(solve_closed_form(net, unit))
    return PhaseScanResult(
        points=tuple((float(x), float(v)) for x, v in zip(phis, transmitted)),
        fwhm_numeric=_interpolated_fwhm(phis, transmitted),
        fwhm_predicted=predicted_fwhm(p.beta),
    )


def _crossing(x, y, start: int, step: int, half: float) -> float | None:
    """Half-level crossing walking outward from the peak; None when not found."""
    inner = start
    i = start + step
    while 0 <= i < len(y):
        if y[i] <= half:
            x0, y0 = x[inner], y[inner]
            x1, y1 = x[i], y[i]
            if y1 == y0:
                return float(x1)
            return float(x0 + (half - y0) * (x1 - x0) / (y1 - y0))
        inner = i
        i += step
    return None


def _interpolated_fwhm(x, y) -> float | None:
    """Width between the two half-maximum crossings, linearly interpolated."""
    peak = int(np.argmax(y))
    half = float(y[peak]) / 2.0
    left = _crossing(x, y, peak, -1, half)
    right = _crossing(x, y, peak, +1, half)
    if left is None or right is None:
        return None
    return right - left
