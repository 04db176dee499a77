"""The solver against 50-digit references.

The closed form's transmission at theta = 0.7 is compared with
1 / (1 + 4 (alpha^2 / beta^4) sin^2(phi / 2)) evaluated by mpmath at 50
digits from the same float beta and phi, at the peak and at both
half-maximum points. Each bound is as tight as today's closed form passes.
The loop denominator forms alpha^2 as sqrt(1 - beta^2)^2 and, near
resonance, subtracts it from 1, so the error grows like 1e-16 / beta^2: at
beta = 1e-6 it is 1.8e-4, the one case marked xfail.

The three exact limits and the undo construction are compared the same way:
psi3' of a seeded instance at d = 1, 2, 4 and 16 against g1 psi (or -g2 psi)
evaluated by mpmath at 50 digits from the same float matrices and state.
d = 64 is left out of tier-1.

The data reference is the d = 1 network of the float g1, g2, m, alpha, beta and psi at
50 digits, each amplitude with a running error bound (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., 2002, 3.3) from the paper's formulas, every term taken in
absolute value: 4u |x||y| and 2^-1070 per product, 2u (|x| + |y|) per sum, and 1/den
widened by den's bound over |den|. A solver that groups the terms otherwise is held
to the same bound.
"""

import cmath
import decimal
import itertools
from decimal import Decimal
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtimeloop.linalg import PIVOT_FLOOR, SplitterParams, random_unitary
from qtimeloop.network import (
    FeedbackNetwork,
    SingularDenominatorError,
    solve_closed_form,
    transmitted_probability,
)
from qtimeloop.scenarios import (
    GrandfatherParams,
    _random_instance,
    _random_state,
    build_grandfather,
    build_undo,
    predicted_fwhm,
)

THETA = 0.7


def reference_transmission(beta: float, phi: float):
    with mpmath.workdps(50):
        b, s = mpmath.mpf(beta), mpmath.sin(mpmath.mpf(phi) / 2)
        return 1 / (1 + 4 * (1 - b * b) / b**4 * s * s)


def relative_error(beta: float, phi: float) -> float:
    net = build_grandfather(GrandfatherParams(beta, THETA, phi))
    got = transmitted_probability(solve_closed_form(net, np.ones(1, dtype=complex)))
    want = reference_transmission(beta, phi)
    with mpmath.workdps(50):
        return float(abs(got - want) / want)


# largest relative error today across phi = 0, +-FWHM/2: 7.8e-16, 3.1e-14, 2.4e-10
BOUNDS = {0.3: 1e-15, 0.1: 4e-14, 1e-3: 3e-10}


@pytest.mark.parametrize("half_widths", [0.0, 0.5, -0.5])
@pytest.mark.parametrize("beta", sorted(BOUNDS, reverse=True))
def test_grandfather_transmission_matches_the_50_digit_lineshape(beta, half_widths):
    phi = half_widths * predicted_fwhm(beta)
    assert relative_error(beta, phi) <= BOUNDS[beta]


@pytest.mark.xfail(strict=True, reason="1 - alpha^2 cancels at small beta: off by 1.8e-4")
def test_grandfather_peak_is_exact_at_tiny_beta():
    assert relative_error(1e-6, 0.0) <= 1e-12


def reference_output(g, psi, sign: int):
    """sign * g psi at 50 digits, from the exact values of the float entries."""
    with mpmath.workdps(50):
        return sign * (mpmath.matrix(g.tolist()) * mpmath.matrix(psi.tolist()))


def max_relative_error(got, want) -> float:
    with mpmath.workdps(50):
        diff = max(abs(mpmath.mpc(z) - w) for z, w in zip(got.tolist(), want))
        return float(diff / max(abs(w) for w in want))


def exact_limit_error(name: str, dim: int, seed: int = 0) -> float:
    """psi3' of :func:`qtimeloop.scenarios.special_case`'s instance against its exact limit."""
    g1, g2, m, psi = _random_instance(seed, dim)
    beta, g2, (g, sign) = {
        "no-feedback": (0.0, g2, (g1, 1)),
        "full-feedback": (1.0, g2, (g2, -1)),
        "equal-paths": (0.6, -g1, (g1, 1)),
    }[name]
    sol = solve_closed_form(FeedbackNetwork(g1, g2, m, SplitterParams.from_beta(beta)), psi)
    return max_relative_error(sol.psi3p, reference_output(g, psi, sign))


def undo_error(dim: int, seed: int = 0, beta: float = 0.1) -> float:
    """psi3' of :func:`qtimeloop.scenarios.undo_case`'s instance against g1 psi."""
    g1 = random_unitary(dim, seed)
    net = build_undo(g1, random_unitary(dim, seed + 1), SplitterParams.from_beta(beta))
    psi = _random_state(seed + 2, dim)
    return max_relative_error(solve_closed_form(net, psi).psi3p, reference_output(g1, psi, 1))


# largest relative error today over the four cases, under the OpenBLAS kernels SkylakeX,
# Haswell and Sandybridge: 2.1e-16, 9.8e-16, 5.7e-16 and 2.6e-14 at d = 1, 2, 4 and 16
EXACT_BOUNDS = {1: 3e-16, 2: 1e-15, 4: 6e-16, 16: 3e-14}


@pytest.mark.parametrize("name", ["no-feedback", "full-feedback", "equal-paths"])
@pytest.mark.parametrize("dim", sorted(EXACT_BOUNDS))
def test_exact_limit_matches_the_50_digit_reference(name, dim):
    assert exact_limit_error(name, dim) <= EXACT_BOUNDS[dim]


@pytest.mark.parametrize("dim", sorted(EXACT_BOUNDS))
def test_undo_matches_the_50_digit_reference(dim):
    assert undo_error(dim) <= EXACT_BOUNDS[dim]


# ---------------------------------------------------------------- the d = 1 data reference

DIGITS50 = decimal.Context(prec=50, Emax=10**6, Emin=-(10**6))  # no float exponent leaves it
with decimal.localcontext(DIGITS50):
    # unit roundoff, what the subnormal parts of a product may lose, and an intermediate
    # large enough that its float may overflow
    U, FLOOR, OVERFLOW = Decimal(2) ** -53, Decimal(2) ** -1070, Decimal(2) ** 1020
AMPLITUDES = ("psi1", "psi2", "psi4", "psi1p", "psi2p", "psi3p", "psi4p")


class Ref(NamedTuple):
    """re + i im at 50 digits, whose float in the solver lies within ``bound`` of it;
    ``size`` is its modulus, ``peak`` the largest a float intermediate of it may reach."""

    re: Decimal
    im: Decimal
    size: Decimal
    bound: Decimal
    peak: Decimal


def _data(z: complex) -> Ref:
    re, im = Decimal(z.real), Decimal(z.imag)  # exact
    size = (re * re + im * im).sqrt()
    return Ref(re, im, size, Decimal(0), size)


def _product(x: Ref, y: Ref) -> Ref:
    sx, sy = x.size + x.bound, y.size + y.bound
    bound = x.size * y.bound + x.bound * sy + 4 * U * sx * sy + FLOOR
    re, im = x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re
    return Ref(re, im, x.size * y.size, bound, max(x.peak, y.peak, sx * sy))


def _sum(x: Ref, y: Ref, sign: int = 1) -> Ref:
    re, im = x.re + sign * y.re, x.im + sign * y.im
    top = x.size + x.bound + y.size + y.bound
    bound = x.bound + y.bound + 2 * U * top
    return Ref(re, im, (re * re + im * im).sqrt(), bound, max(x.peak, y.peak, top))


def network_reference(g1, g2, m, splitter):
    """(operands, den, 1/den, amplitudes at input 1, amplitudes at input 0) of a d = 1
    network, den = 1 + beta^2 M G1 - alpha^2 M G2. Where den's bound reaches zero, nothing
    bounds 1/den: it and the amplitudes are None. At input 0 the bounds are the floors."""
    beta = splitter.beta
    data = 1, splitter.alpha, beta, 1j * beta, -1j * beta, g1, g2, m  # i beta is exact
    with decimal.localcontext(DIGITS50):
        one, a, b, ib, mib, g1, g2, m = (_data(complex(z)) for z in data)
        mg1, mg2 = _product(m, g1), _product(m, g2)
        den = _sum(_sum(one, _product(_product(b, b), mg1)), _product(_product(a, a), mg2), -1)
        margin = den.size - den.bound
        if margin <= 0:
            return None, den, None, None, None
        bound = (den.bound / den.size + 8 * U) / margin + FLOOR
        peak = max(den.peak, 2 * (den.size + den.bound), 1 / margin)
        square = den.size * den.size
        inverse = Ref(den.re / square, -den.im / square, 1 / den.size, bound, peak)
    operands = one, a, ib, mib, g1, g2, mg1, mg2, inverse
    return operands, den, inverse, *(amplitude_reference(operands, psi) for psi in (1, 0))


def amplitude_reference(operands, psi) -> dict[str, Ref]:
    """psi1 = alpha D (1 - M G2) psi, psi2 = -i beta D (1 + M G1) psi with D = 1/den,
    psi4 = alpha M G2 psi2 - i beta M G1 psi1, psi1' = G1 psi1, psi2' = G2 psi2 and
    psi3' = alpha psi1' - i beta psi2', psi4' = alpha psi2' - i beta psi1'."""
    one, a, ib, mib, g1, g2, mg1, mg2, inverse = operands
    with decimal.localcontext(DIGITS50):
        psi = _data(complex(psi))
        psi1 = _product(a, _product(inverse, _product(_sum(one, mg2, -1), psi)))
        psi2 = _product(mib, _product(inverse, _product(_sum(one, mg1), psi)))
        psi4 = _sum(_product(a, _product(mg2, psi2)), _product(ib, _product(mg1, psi1)), -1)
        psi1p, psi2p = _product(g1, psi1), _product(g2, psi2)
        psi3p = _sum(_product(a, psi1p), _product(ib, psi2p), -1)
        psi4p = _sum(_product(a, psi2p), _product(ib, psi1p), -1)
    return dict(zip(AMPLITUDES, (psi1, psi2, psi4, psi1p, psi2p, psi3p, psi4p)))


def _within(got: complex, unit: Ref, zero: Ref, psi: Ref) -> bool:
    """|got - unit psi| <= |psi| unit.bound + zero.bound: the amplitudes are linear in psi,
    and so is every term of their bounds but the floors, which the bound at input 0 holds."""
    with decimal.localcontext(DIGITS50):
        re = Decimal(got.real) - (unit.re * psi.re - unit.im * psi.im)
        im = Decimal(got.imag) - (unit.re * psi.im + unit.im * psi.re)
        bound = psi.size * unit.bound + zero.bound
        return re * re + im * im <= bound * bound


def solve_d1(net: FeedbackNetwork, psi):
    """The solution, or the typed error the solver raised."""
    try:
        return solve_closed_form(net, [psi])
    except (SingularDenominatorError, ValueError) as exc:
        return exc


def assert_within_the_data_reference(outcome, reference, psi: complex):
    """A solution within the reference's bounds; a singular denominator only where |den|
    minus its bound is below ``PIVOT_FLOOR``; a non-finite entry only where an intermediate
    of the reference reaches 2^1020."""
    operands, den, inverse, unit, zero = reference
    if isinstance(outcome, SingularDenominatorError):
        assert den.size - den.bound < PIVOT_FLOOR
    elif isinstance(outcome, ValueError) and str(outcome) == "operator entries must be finite":
        assert den.peak >= OVERFLOW
    elif inverse is None:  # nothing after den is bounded
        pass
    elif isinstance(outcome, ValueError):
        assert str(outcome) == "state entries must be finite"
        peaks = amplitude_reference(operands, psi)
        assert max(peaks["psi1p"].peak, peaks["psi2p"].peak) >= OVERFLOW
    else:
        assert (outcome.psi_in[0], outcome.denom_condition) == (psi, 1.0)
        with decimal.localcontext(DIGITS50):
            exact_psi = _data(complex(psi))
        for name in AMPLITUDES:
            got = getattr(outcome, name)[0]
            if cmath.isfinite(got):
                assert _within(got, unit[name], zero[name], exact_psi), (name, got)
            else:
                assert amplitude_reference(operands, psi)[name].peak >= OVERFLOW, (name, got)


def _numbers(outcome) -> list | tuple:
    """A solution's amplitudes, residuals and condition, or the error's type and message."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    vectors = [outcome.psi_in, *(getattr(outcome, name) for name in AMPLITUDES)]
    return np.concatenate(vectors).tolist() + [
        outcome.conservation_residual_t1, outcome.conservation_residual_t2, outcome.denom_condition]


# signed zeros, tiny and huge magnitudes, pure-imaginary entries and |re| = |im|
EDGE_ENTRIES = (
    0j, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), 1e-150, 1e150,
    2.5j, -1e-150j, complex(1.0, 1.0), complex(-1e150, 1e150), complex(0.6, -0.8),
)
EDGE_INPUTS = (1.0, complex(-0.0, 0.0), 1e150, -2.5j, complex(1e-150, -1e-150))


@pytest.mark.parametrize("beta", [0.0, 1e-6, 0.003, 0.5, 1.0])
def test_d1_solution_is_within_the_data_reference_bound_on_an_edge_grid(beta):
    splitter = SplitterParams.from_beta(beta)
    # outcomes by point with each -0.0 made +0.0 (-0.0 + 0.0 is +0.0), reached first
    first = {}
    for g1, g2, m in itertools.product(EDGE_ENTRIES, repeat=3):
        net, reference = FeedbackNetwork([[g1]], [[g2]], [[m]], splitter), None
        for psi in EDGE_INPUTS:
            outcome = solve_d1(net, psi)
            key = tuple(complex(z.real + 0.0, z.imag + 0.0) for z in (g1, g2, m, psi))
            if key in first:  # a signed-zero variant: the same numbers or the same error
                assert _numbers(outcome) == first[key], (g1, g2, m, psi)
                continue
            first[key] = _numbers(outcome)
            reference = reference or network_reference(g1, g2, m, splitter)
            assert_within_the_data_reference(outcome, reference, psi)


finite_entries = st.complex_numbers(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(g1=finite_entries, g2=finite_entries, m=finite_entries, psi=finite_entries,
       beta=st.floats(0.0, 1.0))
def test_d1_solution_is_within_the_data_reference_bound_on_random_draws(g1, g2, m, psi, beta):
    splitter = SplitterParams.from_beta(beta)
    outcome = solve_d1(FeedbackNetwork([[g1]], [[g2]], [[m]], splitter), psi)
    assert_within_the_data_reference(outcome, network_reference(g1, g2, m, splitter), psi)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="1/den reads 0 where "
                   "|den|^2 / max(|re|, |im|) overflows, so every amplitude reads 0")
def test_d1_solution_with_a_denominator_near_the_largest_double():
    # alpha = 0: den = 1 + m g1 = 1.79e308 (1 + i), psi2 = -i psi and the transmission is 0.25
    g1, g2, m, splitter = 1 + 1j, 0.5, 1.79e308, SplitterParams.from_beta(1.0)
    outcome = solve_d1(FeedbackNetwork([[g1]], [[g2]], [[m]], splitter), 1.0)
    assert_within_the_data_reference(outcome, network_reference(g1, g2, m, splitter), 1.0)


@pytest.mark.parametrize("beta", [0.3, 1e-3, 1e-6])
def test_grandfather_near_resonance_is_within_the_data_reference_bound(beta):
    # where the lineshape reference above fails at beta = 1e-6, the data reference holds
    for theta, half_widths in itertools.product((0.0, 0.7, -2.9), (0.0, 0.5, -0.5, 2.0)):
        net = build_grandfather(GrandfatherParams(beta, theta, half_widths * predicted_fwhm(beta)))
        reference = network_reference(net.g1.item(), net.g2.item(), net.m.item(), net.splitter)
        assert_within_the_data_reference(solve_d1(net, 1.0), reference, 1.0)
