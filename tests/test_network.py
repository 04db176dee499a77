import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtimeloop.linalg import SplitterParams, as_operator, as_state, norm_sq, random_unitary
from qtimeloop.network import (
    FeedbackNetwork,
    SingularDenominatorError,
    solve_closed_form,
    transmitted_probability,
    verify_fixed_point,
)
from qtimeloop.scenarios import build_undo


def normalized_state(seed, dim):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / math.sqrt(norm_sq(v))


def random_network(seed, dim, beta):
    return FeedbackNetwork(
        g1=random_unitary(dim, seed),
        g2=random_unitary(dim, seed + 1),
        m=random_unitary(dim, seed + 2),
        splitter=SplitterParams.from_beta(beta),
    )


def scalar_closed_form(g1, g2, m, alpha, beta, psi):
    """Independent d=1 oracle: the output amplitude as plain complex arithmetic."""
    d = 1.0 / (1.0 + beta**2 * m * g1 - alpha**2 * m * g2)
    return (alpha**2 * g1 * d * (1.0 - m * g2) - beta**2 * g2 * d * (1.0 + m * g1)) * psi


def test_network_validates_matching_dims():
    with pytest.raises(ValueError, match="mismatch"):
        FeedbackNetwork(np.eye(2), np.eye(3), np.eye(2), SplitterParams.from_beta(0.5))


def test_network_operators_are_frozen_copies():
    g = np.eye(2, dtype=complex)
    net = FeedbackNetwork(g, g, g, SplitterParams.from_beta(0.5))
    g[0, 0] = 99.0
    assert net.g1[0, 0] == 1.0
    with pytest.raises(ValueError):
        net.g1[0, 0] = 5.0


@pytest.mark.parametrize("dim", [1, 3])
def test_network_copies_keep_the_memory_order_and_are_read_only(dim):
    g = np.ascontiguousarray(random_unitary(dim, 0))
    m = np.asfortranarray(random_unitary(dim, 1))
    net = FeedbackNetwork(g, g, m, SplitterParams.from_beta(0.5))
    assert net.g1.flags.c_contiguous and net.g2.flags.c_contiguous
    assert net.m.flags.f_contiguous
    assert net.m.flags.c_contiguous == (dim == 1)
    for op in (net.g1, net.g2, net.m):
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 5.0


def test_undo_network_keeps_the_fortran_order_of_its_inverse():
    # m = -g1^-1 comes from invert in Fortran order; m @ v takes the gemv kernel the goldens used
    net = build_undo(random_unitary(4, 0), random_unitary(4, 1), SplitterParams.from_beta(0.3))
    assert net.m.flags.f_contiguous and not net.m.flags.c_contiguous


@pytest.mark.parametrize("passed_read_only", [False, True])
@pytest.mark.parametrize("dim", [1, 3])
def test_network_ignores_later_writes_to_the_callers_arrays(dim, passed_read_only):
    arrays = [random_unitary(dim, 0), random_unitary(dim, 1), np.asfortranarray(random_unitary(dim, 2))]
    for a in arrays:
        a.setflags(write=not passed_read_only)
    net = FeedbackNetwork(*arrays, SplitterParams.from_beta(0.5))
    kept = [op.copy() for op in (net.g1, net.g2, net.m)]
    for a in arrays:
        a.setflags(write=True)
        a[...] = 99.0
    for op, before in zip((net.g1, net.g2, net.m), kept):
        assert np.array_equal(op, before)


NON_FINITE = (
    complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
    complex(-math.inf, 0.0), complex(0.0, math.inf), complex(0.0, -math.inf),
)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_non_finite_entries_are_rejected_with_one_message_at_every_size(bad, dim):
    good = np.eye(dim, dtype=complex)
    op = good.copy()
    op[-1, -1] = bad
    state = np.ones(dim, dtype=complex)
    state[-1] = bad
    splitter = SplitterParams.from_beta(0.5)
    operator_message, state_message = "^operator entries must be finite$", "^state entries must be finite$"
    with pytest.raises(ValueError, match=operator_message):
        as_operator(op)
    for operators in ((op, good, good), (good, op, good), (good, good, op)):
        with pytest.raises(ValueError, match=operator_message):
            FeedbackNetwork(*operators, splitter)
    with pytest.raises(ValueError, match=state_message):
        as_state(state)
    with pytest.raises(ValueError, match=state_message):
        solve_closed_form(FeedbackNetwork(good, good, good, splitter), state)


def test_no_feedback_limit_reproduces_forward_channel():
    psi = normalized_state(0, 3)
    net = FeedbackNetwork(
        g1=random_unitary(3, 1),
        g2=random_unitary(3, 2),
        m=random_unitary(3, 3),
        splitter=SplitterParams.from_alpha(1.0),
    )
    sol = solve_closed_form(net, psi)
    np.testing.assert_allclose(sol.psi3p, net.g1 @ psi, atol=1e-12)
    assert transmitted_probability(sol) == pytest.approx(1.0, abs=1e-12)


def test_full_feedback_limit_reproduces_negated_alternate_channel():
    psi = normalized_state(4, 3)
    net = FeedbackNetwork(
        g1=random_unitary(3, 5),
        g2=random_unitary(3, 6),
        m=random_unitary(3, 7),
        splitter=SplitterParams.from_beta(1.0),
    )
    sol = solve_closed_form(net, psi)
    np.testing.assert_allclose(sol.psi3p, -(net.g2 @ psi), atol=1e-12)


def test_equal_paths_reproduces_forward_channel():
    g1 = random_unitary(4, 8)
    psi = normalized_state(9, 4)
    net = FeedbackNetwork(g1, -g1, random_unitary(4, 10), SplitterParams.from_beta(0.37))
    sol = solve_closed_form(net, psi)
    np.testing.assert_allclose(sol.psi3p, g1 @ psi, atol=1e-12)


def test_blocked_channel_scalar_amplitudes():
    # d=1, g1=0, g2=1, m=1, beta=0.1: output flips sign, loop current is 1/beta
    beta = 0.1
    net = FeedbackNetwork(
        g1=np.zeros((1, 1)),
        g2=np.eye(1),
        m=np.eye(1),
        splitter=SplitterParams.from_beta(beta),
    )
    psi = np.ones(1, dtype=complex)
    sol = solve_closed_form(net, psi)
    assert sol.psi3p[0] == pytest.approx(-1.0, abs=1e-12)
    assert abs(sol.psi2[0]) == pytest.approx(1.0 / beta, abs=1e-10)
    assert abs(sol.psi4[0]) == pytest.approx(math.sqrt(1 - beta**2) / beta, abs=1e-10)
    assert abs(sol.psi1[0]) <= 1e-12
    assert transmitted_probability(sol) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_scalar_solver_matches_direct_complex_arithmetic(seed):
    rng = np.random.default_rng(seed)
    g1, g2, m = (complex(*rng.standard_normal(2)) for _ in range(3))
    beta = float(rng.uniform(0.05, 0.95))
    alpha = math.sqrt(1 - beta * beta)
    psi = complex(*rng.standard_normal(2))
    net = FeedbackNetwork([[g1]], [[g2]], [[m]], SplitterParams.from_beta(beta))
    sol = solve_closed_form(net, np.array([psi]))
    expected = scalar_closed_form(g1, g2, m, alpha, beta, psi)
    assert abs(sol.psi3p[0] - expected) <= 1e-14 * max(1.0, abs(expected))


@settings(max_examples=40, deadline=None)
@given(c=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False))
def test_solution_is_linear_in_the_input(c):
    net = random_network(20, 3, beta=0.4)
    psi = normalized_state(21, 3)
    base = solve_closed_form(net, psi)
    scaled = solve_closed_form(net, c * psi)
    for name in ("psi1", "psi2", "psi4", "psi1p", "psi2p", "psi3p", "psi4p"):
        np.testing.assert_allclose(
            getattr(scaled, name), c * getattr(base, name), rtol=1e-12, atol=1e-13
        )


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.2, 0.5])
def test_conservation_holds_while_loop_current_exceeds_input(beta):
    net = FeedbackNetwork(
        g1=np.zeros((1, 1)),
        g2=np.eye(1),
        m=np.eye(1),
        splitter=SplitterParams.from_beta(beta),
    )
    sol = solve_closed_form(net, np.ones(1, dtype=complex))
    assert sol.conservation_residual_t1 <= 1e-11
    assert sol.conservation_residual_t2 <= 1e-11
    # the loop runs "hot": psi4 is larger than the input, conservation still holds
    assert norm_sq(sol.psi4) > norm_sq(sol.psi_in)


@pytest.mark.parametrize("seed,dim,beta", [(0, 2, 0.3), (1, 4, 0.6), (2, 8, 0.15)])
def test_conservation_residuals_on_random_networks(seed, dim, beta):
    net = random_network(seed * 10 + 100, dim, beta)
    sol = solve_closed_form(net, normalized_state(seed, dim))
    assert sol.conservation_residual_t1 <= 1e-11
    assert sol.conservation_residual_t2 <= 1e-11


def test_verify_fixed_point_accepts_solver_output():
    net = random_network(30, 4, beta=0.45)
    sol = solve_closed_form(net, normalized_state(31, 4))
    assert verify_fixed_point(net, sol) <= 1e-10


def test_verify_fixed_point_detects_broken_loop():
    net = random_network(32, 3, beta=0.45)
    sol = solve_closed_form(net, normalized_state(33, 3))
    broken = dataclasses.replace(sol, psi4=sol.psi4 + 1e-3)
    with pytest.warns(RuntimeWarning):
        residual = verify_fixed_point(net, broken)
    assert residual >= 1e-4


def test_verify_fixed_point_no_feedback_is_exact():
    net = FeedbackNetwork(
        g1=random_unitary(3, 40),
        g2=random_unitary(3, 41),
        m=random_unitary(3, 42),
        splitter=SplitterParams.from_alpha(1.0),
    )
    sol = solve_closed_form(net, normalized_state(43, 3))
    assert verify_fixed_point(net, sol) <= 1e-14


def test_singular_denominator_raises_with_condition():
    # alpha=1 with m g2 = identity makes the denominator exactly zero
    net = FeedbackNetwork(np.eye(1), np.eye(1), np.eye(1), SplitterParams.from_alpha(1.0))
    with pytest.raises(SingularDenominatorError) as exc:
        solve_closed_form(net, np.ones(1))
    assert exc.value.condition is not None


def test_transmitted_probability_rejects_zero_input():
    net = random_network(50, 2, beta=0.5)
    sol = solve_closed_form(net, normalized_state(51, 2))
    hollow = dataclasses.replace(sol, psi_in=np.zeros(2, dtype=complex))
    with pytest.raises(ValueError, match="zero norm"):
        transmitted_probability(hollow)


def test_transmitted_probability_beta_half_squared_phase_pi():
    # beta^2 = 1/2 at phi = pi: transmission drops to 1/9
    beta = math.sqrt(0.5)
    net = FeedbackNetwork(
        g1=np.zeros((1, 1)),
        g2=np.eye(1),
        m=np.array([[np.exp(1j * math.pi)]]),
        splitter=SplitterParams.from_beta(beta),
    )
    sol = solve_closed_form(net, np.ones(1))
    assert transmitted_probability(sol) == pytest.approx(1.0 / 9.0, abs=1e-12)


def matrix_closed_form_d1(net, psi):
    """The d=1 closed form as 1x1 numpy expressions, the way the solver wrote
    it before d=1 ran on Python scalars: the denominator inverse is ztrti2's
    reciprocal, the late coupler and the residuals are array operations.
    Returns the eight vectors and both residuals, or raises what the solver
    raised."""
    psi = np.asarray(psi, dtype=complex)
    a, b = net.splitter.alpha, net.splitter.beta
    eye = np.eye(1, dtype=complex)
    mg1 = net.m @ net.g1
    mg2 = net.m @ net.g2
    den = eye + b * b * mg1 - a * a * mg2
    if not np.isfinite(den).all():
        raise ValueError("operator entries must be finite")
    ar, ai = den.real.item(), den.imag.item()
    if math.hypot(ar, ai) < 1e-300:
        message = "loop denominator is singular: matrix is singular (zero pivot)"
        raise SingularDenominatorError(message, condition=math.inf)
    swap = abs(ai) > abs(ar)
    ratio = ar / ai if swap else ai / ar
    q = 1.0 / ((ai if swap else ar) * (1.0 + ratio * ratio))
    d_op = np.array([[complex(ratio * q, -q) if swap else complex(q, -ratio * q)]])
    psi1 = a * (d_op @ ((eye - mg2) @ psi))
    psi2 = -1j * b * (d_op @ ((eye + mg1) @ psi))
    psi4 = a * (mg2 @ psi2) - 1j * b * (mg1 @ psi1)
    psi1p = net.g1 @ psi1
    psi2p = net.g2 @ psi2
    if not (np.isfinite(psi1p).all() and np.isfinite(psi2p).all()):
        raise ValueError("state entries must be finite")
    psi3p = a * psi1p - 1j * b * psi2p
    psi4p = a * psi2p - 1j * b * psi1p

    def sq(v):
        return float(np.vdot(v, v).real)

    res_t1 = abs(sq(psi1) + sq(psi2) - sq(psi) - sq(psi4))
    res_t2 = abs(sq(psi3p) + sq(psi4p) - sq(psi1p) - sq(psi2p))
    return (psi, psi1, psi2, psi4, psi1p, psi2p, psi3p, psi4p), res_t1, res_t2


def bits(vectors, res_t1, res_t2):
    return [v.tobytes() for v in vectors], struct.pack("<2d", res_t1, res_t2)


def assert_scalar_path_is_bit_equal(g1, g2, m, beta, psi):
    net = FeedbackNetwork([[g1]], [[g2]], [[m]], SplitterParams.from_beta(beta))
    try:
        with np.errstate(all="ignore"):
            reference = bits(*matrix_closed_form_d1(net, [psi]))
    except (SingularDenominatorError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            solve_closed_form(net, [psi])
        assert str(got.value) == str(exc)
        assert getattr(got.value, "condition", None) == getattr(exc, "condition", None)
        return
    sol = solve_closed_form(net, [psi])
    vectors = (sol.psi_in, sol.psi1, sol.psi2, sol.psi4, sol.psi1p, sol.psi2p, sol.psi3p, sol.psi4p)
    assert all(v.dtype == complex and v.shape == (1,) for v in vectors)
    assert bits(vectors, sol.conservation_residual_t1, sol.conservation_residual_t2) == reference
    assert sol.denom_condition == 1.0


# signed zeros, tiny and huge magnitudes, pure-imaginary entries and |re| = |im|
EDGE_ENTRIES = (
    0j, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), 1e-150, 1e150,
    2.5j, -1e-150j, complex(1.0, 1.0), complex(-1e150, 1e150), complex(0.6, -0.8),
)
EDGE_INPUTS = (1.0, complex(-0.0, 0.0), 1e150, -2.5j, complex(1e-150, -1e-150))


@pytest.mark.parametrize("beta", [0.0, 1e-6, 0.003, 0.5, 1.0])
def test_d1_scalar_path_is_bit_equal_to_the_matrix_formulas_on_an_edge_grid(beta):
    for g1, g2, m in itertools.product(EDGE_ENTRIES, repeat=3):
        for psi in EDGE_INPUTS:
            assert_scalar_path_is_bit_equal(g1, g2, m, beta, psi)


finite_entries = st.complex_numbers(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(g1=finite_entries, g2=finite_entries, m=finite_entries, psi=finite_entries,
       beta=st.floats(0.0, 1.0))
def test_d1_scalar_path_is_bit_equal_to_the_matrix_formulas_on_random_draws(g1, g2, m, psi, beta):
    assert_scalar_path_is_bit_equal(g1, g2, m, beta, psi)


@pytest.mark.parametrize("g1, g2, m, beta, psi, error, message", [
    # alpha = 1 with m g2 = 1: the denominator is exactly zero
    (0.3, 1.0, 1.0, 0.0, 1.0, SingularDenominatorError, "singular"),
    # m g1 = 1e400 overflows the denominator
    (1e200, 1.0, 1e200, 0.5, 1.0, ValueError, "operator entries must be finite"),
    # a finite denominator, but psi1' = g1 psi1 ~ 1e310
    (1e300, 1.0, 1e-300, 0.5, 1e10, ValueError, "state entries must be finite"),
])
def test_d1_scalar_path_raises_the_matrix_paths_typed_errors(g1, g2, m, beta, psi, error, message):
    net = FeedbackNetwork([[g1]], [[g2]], [[m]], SplitterParams.from_beta(beta))
    with pytest.raises(error, match=message) as exc:
        solve_closed_form(net, [psi])
    if error is SingularDenominatorError:
        assert exc.value.condition == math.inf
    with pytest.raises(error, match=message), np.errstate(all="ignore"):
        matrix_closed_form_d1(net, [psi])
