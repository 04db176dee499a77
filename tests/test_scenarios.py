import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtimeloop.linalg import SingularMatrixError, SplitterParams, norm_sq, random_unitary
from qtimeloop.network import solve_closed_form, transmitted_probability
from qtimeloop.scenarios import (
    SPECIAL_CASES,
    GrandfatherParams,
    _interpolated_fwhm,
    build_grandfather,
    build_undo,
    grandfather_amplitude_ratios,
    grandfather_case,
    grandfather_transmission,
    perturbative_case,
    perturbative_check,
    phase_scan,
    predicted_fwhm,
    special_case,
    undo_case,
)


def normalized_state(seed, dim):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / math.sqrt(norm_sq(v))


def solve_grandfather(beta, theta=0.0, phi=0.0):
    net = build_grandfather(GrandfatherParams(beta=beta, theta=theta, phi=phi))
    return solve_closed_form(net, np.ones(1, dtype=complex))


# ---------------------------------------------------------------- grandfather

def test_build_grandfather_loop_product_is_pure_phi_phase():
    for theta in (0.0, 1.1, -2.5):
        net = build_grandfather(GrandfatherParams(beta=0.2, theta=theta, phi=0.0))
        assert (net.m @ net.g2)[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert np.all(net.g1 == 0)


def test_grandfather_params_validation():
    with pytest.raises(ValueError):
        GrandfatherParams(beta=0.0)
    with pytest.raises(ValueError):
        GrandfatherParams(beta=1.0)
    with pytest.raises(ValueError):
        GrandfatherParams(beta=0.5, theta=float("inf"))


def test_grandfather_params_reject_a_beta_the_lineshape_cannot_take():
    # alpha^2 / beta^4 overflows below beta ~ 1e-77; beta^4 underflows to 0 below ~1e-81
    with pytest.raises(ValueError, match="below 1e-75"):
        GrandfatherParams(beta=1e-76)
    assert grandfather_transmission(GrandfatherParams(beta=1e-75).beta, 0.0) == 1.0


@pytest.mark.parametrize("beta", [1e-78, 1e-90, 0.0, 1.0, math.nan])
def test_lineshape_helpers_take_only_the_betas_grandfather_params_takes(beta):
    # unguarded, 1e-78 gave nan (inf * sin(0)^2) and 1e-90 a ZeroDivisionError
    for call in (lambda: grandfather_transmission(beta, 0.0), lambda: predicted_fwhm(beta)):
        with pytest.raises(ValueError, match="beta"):
            call()


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.3, 0.7, 0.95])
@pytest.mark.parametrize("theta", [0.0, 1.3])
def test_zero_phi_transmits_fully_for_any_coupling(beta, theta):
    sol = solve_grandfather(beta, theta=theta, phi=0.0)
    assert transmitted_probability(sol) == pytest.approx(1.0, abs=1e-10)


def test_transmission_beta_half_phi_pi():
    # beta = 0.5 at phi = pi: beta^4 / (beta^4 + 4 alpha^2) = 0.0625 / 3.0625
    sol = solve_grandfather(0.5, phi=math.pi)
    assert transmitted_probability(sol) == pytest.approx(0.0625 / 3.0625, abs=1e-12)
    assert grandfather_transmission(0.5, math.pi) == pytest.approx(0.0625 / 3.0625, abs=1e-15)


def test_solver_matches_lineshape_formula_on_dense_grid():
    # includes the theta sweep: theta enters g2 and m with opposite signs
    # and must cancel in every observable
    betas = np.linspace(0.05, 0.95, 20)
    thetas = np.linspace(0.0, 2.0 * math.pi, 8)
    phis = np.linspace(-math.pi, math.pi, 41)
    worst = 0.0
    for beta in betas:
        for theta in thetas:
            for phi in phis:
                got = transmitted_probability(solve_grandfather(float(beta), float(theta), float(phi)))
                want = grandfather_transmission(float(beta), float(phi))
                worst = max(worst, abs(got - want))
    assert worst <= 1e-12


def test_transmission_even_and_periodic_in_phi():
    for beta in (0.1, 0.4):
        for phi in (0.3, 1.7, 2.9):
            t_plus = transmitted_probability(solve_grandfather(beta, phi=phi))
            t_minus = transmitted_probability(solve_grandfather(beta, phi=-phi))
            t_wrapped = transmitted_probability(solve_grandfather(beta, phi=phi + 2 * math.pi))
            assert t_plus == pytest.approx(t_minus, abs=1e-12)
            assert t_plus == pytest.approx(t_wrapped, abs=1e-12)


def test_amplitude_ratios_at_zero_phi():
    r1, r2, r4 = grandfather_amplitude_ratios(GrandfatherParams(beta=0.1))
    assert r1 == pytest.approx(0.0, abs=1e-10)
    assert r2 == pytest.approx(10.0, abs=1e-10)
    assert r4 == pytest.approx(math.sqrt(0.99) / 0.1, abs=1e-10)

    r1, r2, r4 = grandfather_amplitude_ratios(GrandfatherParams(beta=0.5))
    assert r1 == pytest.approx(0.0, abs=1e-10)
    assert r2 == pytest.approx(2.0, abs=1e-10)
    assert r4 == pytest.approx(math.sqrt(3.0), abs=1e-10)


@pytest.mark.parametrize("beta", [0.02, 0.1, 0.33, 0.8])
def test_first_channel_amplitude_cancels_for_any_beta(beta):
    r1, _, _ = grandfather_amplitude_ratios(GrandfatherParams(beta=beta))
    assert r1 <= 1e-10


# ---------------------------------------------------------------- undo

@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
def test_undo_reproduces_forward_channel_for_any_coupling(beta):
    g1 = random_unitary(4, 60)
    g2 = random_unitary(4, 61)
    psi = normalized_state(62, 4)
    net = build_undo(g1, g2, SplitterParams.from_beta(beta))
    sol = solve_closed_form(net, psi)
    assert float(np.max(np.abs(sol.psi3p - g1 @ psi))) <= 1e-11


def test_undo_identity_channel():
    net = build_undo(np.eye(2), random_unitary(2, 63), SplitterParams.from_beta(0.3))
    np.testing.assert_allclose(net.m, -np.eye(2), atol=1e-15)
    psi = normalized_state(64, 2)
    sol = solve_closed_form(net, psi)
    np.testing.assert_allclose(sol.psi3p, psi, atol=1e-12)


def test_undo_scalar_phase_channel_transmits_fully():
    theta = 0.8
    g1 = np.array([[np.exp(-1j * theta)]])
    net = build_undo(g1, np.eye(1), SplitterParams.from_beta(0.3))
    assert net.m[0, 0] == pytest.approx(-np.exp(1j * theta), abs=1e-15)
    sol = solve_closed_form(net, np.ones(1))
    assert transmitted_probability(sol) == pytest.approx(1.0, abs=1e-12)


def test_undo_requires_invertible_channel():
    with pytest.raises(SingularMatrixError):
        build_undo(np.zeros((2, 2)), np.eye(2), SplitterParams.from_beta(0.5))


# ---------------------------------------------------------------- special-case suite

@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_special_case_suite_passes(seed, dim):
    assert SPECIAL_CASES == ("no-feedback", "full-feedback", "equal-paths")
    for name in SPECIAL_CASES:
        [(_, residual, tol)], _ = special_case(name, seed, dim=dim)
        assert residual <= tol, f"{name} residual {residual}"
        assert residual <= 1e-11


def test_grandfather_case_checks_the_ratios_only_on_resonance():
    on_checks, fields = grandfather_case(0.1, 0.4, 0.0)
    off_checks, _ = grandfather_case(0.1, 0.4, 0.3)
    assert [label for label, _, _ in on_checks][1:] == [
        "|psi1/psi| = 0", "|psi2/psi| = 1/beta", "|psi4/psi| = alpha/beta"
    ]
    assert len(off_checks) == 1
    assert all(residual <= tol for _, residual, tol in on_checks + off_checks)
    assert list(fields) == ["ratios", "transmitted", "analytic"]


def test_a_violated_identity_is_reported_not_raised():
    [(_, residual, tol)], fields = perturbative_case(0, 4, 0.01)
    assert residual > tol == 1e-6
    assert fields == {"relative_error": residual, "tolerance": tol}
    [(_, residual, tol)], _ = undo_case(3, 4, 0.1)
    assert residual <= tol == 1e-11


# ---------------------------------------------------------------- perturbative

def test_perturbative_matches_finite_differences():
    g1 = random_unitary(4, 70)
    g2 = random_unitary(4, 71)
    m = random_unitary(4, 72)
    psi = normalized_state(73, 4)
    _, _, rel = perturbative_check(g1, g2, m, psi, gamma=1e-4)
    assert rel <= 1e-6


def test_perturbative_error_shrinks_quadratically():
    g1 = random_unitary(4, 74)
    g2 = random_unitary(4, 75)
    m = random_unitary(4, 76)
    psi = normalized_state(77, 4)
    _, _, rel_coarse = perturbative_check(g1, g2, m, psi, gamma=4e-3)
    _, _, rel_fine = perturbative_check(g1, g2, m, psi, gamma=2e-3)
    # Richardson leaves an O(gamma^2) error; halving gamma should shrink it
    # by about 4 (allow slack for the constant)
    assert rel_fine <= rel_coarse / 2.5


def test_perturbative_equal_paths_derivative_vanishes():
    g1 = random_unitary(3, 78)
    m = random_unitary(3, 79)
    psi = normalized_state(80, 3)
    numeric, analytic, _ = perturbative_check(g1, -g1, m, psi, gamma=1e-4)
    assert float(np.max(np.abs(analytic))) == 0.0
    assert float(np.max(np.abs(numeric))) <= 1e-8


def test_perturbative_resonant_raises():
    one = np.eye(1)
    with pytest.raises(SingularMatrixError):
        perturbative_check(one, one, one, np.ones(1), gamma=1e-4)


def test_perturbative_gamma_bounds():
    g = np.eye(2)
    with pytest.raises(ValueError):
        perturbative_check(g, g, 0.5 * g, np.ones(2), gamma=0.0)
    with pytest.raises(ValueError):
        perturbative_check(g, g, 0.5 * g, np.ones(2), gamma=0.5)


# ---------------------------------------------------------------- phase scan

def test_phase_scan_full_window():
    result = phase_scan(GrandfatherParams(beta=0.3), -math.pi, math.pi, 4001)
    phis = [p for p, _ in result.points]
    values = [v for _, v in result.points]
    assert phis == sorted(phis)
    assert len(result.points) == 4001
    assert max(values) == pytest.approx(1.0, abs=1e-12)
    assert phis[int(np.argmax(values))] == pytest.approx(0.0, abs=1e-12)
    for phi, value in result.points[::200]:
        assert -1e-12 <= value <= 1.0 + 1e-12
        assert value == pytest.approx(grandfather_transmission(0.3, phi), abs=1e-12)
    assert result.fwhm_predicted == pytest.approx(2 * 0.09 / math.sqrt(0.91), rel=1e-12)
    assert result.fwhm_numeric == pytest.approx(0.18869, rel=0.01)


@pytest.mark.parametrize("theta", [0.7, -2.9])
@pytest.mark.parametrize("beta", [0.3, 0.1, 0.03])
def test_phase_scan_points_are_the_worked_case_networks_bit_for_bit(beta, theta):
    # the scan builds its networks inline; theta != 0, as g2 = 1 at theta = 0 hides rounding
    half = math.pi if beta >= 0.1 else 20.0 * predicted_fwhm(beta)
    points = phase_scan(GrandfatherParams(beta, theta), -half, half, 4001).points
    peak = int(np.argmax([value for _, value in points]))
    for k in sorted({*range(0, 4001, 80), peak}):
        phi, value = points[k]
        net = build_grandfather(GrandfatherParams(beta, theta, phi))
        assert value == transmitted_probability(solve_closed_form(net, [1])), (k, phi)


def test_phase_scan_small_angle_lorentzian_limit():
    beta = 0.3
    window = beta**2 / 10.0
    result = phase_scan(GrandfatherParams(beta=beta), -window, window, 201)
    alpha_sq = 1 - beta**2
    for phi, value in result.points:
        lorentzian = 1.0 / (1.0 + alpha_sq * phi**2 / beta**4)
        assert value == pytest.approx(lorentzian, abs=1e-4)


def test_phase_scan_width_absent_when_crossings_leave_window():
    result = phase_scan(GrandfatherParams(beta=0.3), -0.01, 0.01, 101)
    assert result.fwhm_numeric is None


def test_width_out_of_regime_reads_the_five_percent_verdict():
    assert not phase_scan(GrandfatherParams(beta=0.3), -math.pi, math.pi, 4001).width_out_of_regime
    assert phase_scan(GrandfatherParams(beta=0.9), -math.pi, math.pi, 2001).width_out_of_regime
    # no numeric width, so no verdict
    assert not phase_scan(GrandfatherParams(beta=0.3), -0.01, 0.01, 101).width_out_of_regime


U = Fraction(1, 2**53)  # unit roundoff


def exact_half_maximum_width(x, y):
    """(width, bound, segments) of the piecewise-linear curve through (x, y), in exact
    fractions; None for a curve with a NaN sample or a side without a crossing.

    Outward from the first maximum, a side's crossing lies on the segment (x0, y0, x1, y1)
    from its first sample at or below half the maximum, (x1, y1), to that sample's inner
    neighbour; on a flat segment it is x1. The float width may round 9u of each crossing's
    terms, plus what rounding half of a subnormal peak (2^-1075) moves it and a subnormal
    quotient loses: the bound."""
    if any(map(math.isnan, y)):
        return None
    peak = y.index(max(y))
    half = Fraction(y[peak]) / 2
    sides = (range(peak - 1, -1, -1), range(peak + 1, len(y)))
    outer = [next((i for i in side if y[i] <= half), None) for side in sides]
    if None in outer:
        return None
    ends, bound, segments = [], 0, []
    for i, inner in zip(outer, (outer[0] + 1, outer[1] - 1)):
        x0, y0, x1, y1 = segment = tuple(map(Fraction, (x[inner], y[inner], x[i], y[i])))
        step = 0 if y1 == y0 else (half - y0) * (x1 - x0) / (y1 - y0)
        ends.append(x1 if y1 == y0 else x0 + step)
        bound += 9 * U * (abs(x0) + abs(x1) + abs(step))
        if y1 != y0:
            bound += (abs(x1 - x0) / abs(y1 - y0) + 4) / 2**1075
        segments.append(segment)
    return ends[1] - ends[0], bound, segments


@st.composite
def _curves(draw):
    """Sorted grids with ties, flat and all-zero runs, NaN and peaks anywhere, at scales 1e±300."""
    n = draw(st.integers(1, 12))
    levels = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, -1.0, math.nan])
    y = draw(st.lists(st.one_of(levels, st.floats(-2.0, 2.0)), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1.0, 1e300, 1e-300]))
    x = draw(st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n, unique=True))
    return sorted(x), np.array(y) * scale


@settings(max_examples=500, deadline=None)
@given(_curves())
@example(([0.0, 1.0, 2.0], np.zeros(3)))
@example(([0.0, 1.0, 2.0], np.array([-2.0, -1.0, -2.0])))
@example(([0.0, 1.0, 2.0], np.array([1.0, 1.0, 1.0])))
@example(([0.0, 1.0, 2.0], np.array([1.0, 0.4, 0.1])))
@example(([0.0, 1.0, 2.0], np.array([0.1, 0.4, 1.0])))
@example(([0.0, 1.0, 2.0, 3.0], np.array([0.1, math.nan, 1.0, 0.2])))
@example(([-1e300, 0.0, 1e300], np.array([1e-300, 3e-300, 1e-300])))
def test_interpolated_fwhm_meets_the_exact_crossings(curve):
    x, y = curve
    with np.errstate(all="ignore"):
        got = _interpolated_fwhm(x, y)
    exact = exact_half_maximum_width(x, y.tolist())
    if exact is None:
        assert got is None
        return
    width, bound, segments = exact
    # Skipped: a curve where the float product (half - y0)(x1 - x0) of an interpolation
    # overflows or underflows, so that the width loses its bits (the strict xfail below)
    half = float(np.max(y)) / 2.0
    products = [(half - float(y0)) * float(x1 - x0) for x0, y0, x1, y1 in segments if y1 != y0]
    if all(2.0**-1022 <= abs(product) < math.inf for product in products):
        assert abs(Fraction(got) - width) <= bound


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the interpolation's "
                   "(half - y0)(x1 - x0) leaves the float range before the division brings it back")
@pytest.mark.parametrize("x, y, width", [
    ([-1e300, 0.0, 1e300], [0.5e300, 2e300, 0.5e300], Fraction(4, 3) * Fraction(1e300)),
    ([0.0, 1e-300, 2e-300], [0.25e-300, 1e-300, 0.25e-300], Fraction(4, 3) * Fraction(1e-300)),
], ids=["overflow", "underflow"])
def test_interpolated_fwhm_of_a_product_past_the_float_range(x, y, width):
    with np.errstate(over="ignore"):
        got = _interpolated_fwhm(x, np.array(y))
    assert math.isfinite(got) and abs(Fraction(got) - width) <= 4 * U * width


def test_phase_scan_validates_range():
    p = GrandfatherParams(beta=0.5)
    with pytest.raises(ValueError):
        phase_scan(p, 0.0, 0.0, 101)
    with pytest.raises(ValueError):
        phase_scan(p, 1.0, -1.0, 101)
    with pytest.raises(ValueError):
        phase_scan(p, -1.0, 1.0, 2)


def test_phase_scan_rejects_a_phi_it_would_ignore():
    with pytest.raises(ValueError, match="p.phi must be 0"):
        phase_scan(GrandfatherParams(beta=0.3, phi=1.0), -math.pi, math.pi, 11)


def test_predicted_fwhm_tracks_half_max_of_formula():
    # the exact half-max width is 4 arcsin(beta^2 / (2 alpha)); the quoted
    # 2 beta^2 / alpha is its small-angle limit
    for beta in (0.1, 0.2, 0.3):
        alpha = math.sqrt(1 - beta**2)
        exact = 4.0 * math.asin(beta**2 / (2 * alpha))
        assert predicted_fwhm(beta) == pytest.approx(exact, rel=5e-3)
