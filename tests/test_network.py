import dataclasses
import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtimeloop.cli import main
from qtimeloop.linalg import (
    SplitterParams,
    as_operator,
    as_state,
    invert,
    norm_sq,
    random_unitary,
    spectral_radius,
)
from qtimeloop.network import (
    FeedbackNetwork,
    SingularDenominatorError,
    solve_closed_form,
    transmitted_probability,
    verify_fixed_point,
)
from qtimeloop.oracle import solve_by_iteration
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


# the same values in the layouts a caller can hand over
LAYOUTS = {
    "fortran": np.asfortranarray,
    "transposed": lambda a: np.ascontiguousarray(a.T).T,
    "reversed": lambda a: np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1],
}


def strided(v, step):
    """The entries of v as a view that steps ``step`` entries through memory."""
    spaced = np.zeros(3 * len(v), dtype=complex)
    spaced[::step] = v
    return spaced[::step]


def bits(value):
    """The bytes of a value's entries in C order: equal bits, equal bytes (None stays None)."""
    return None if value is None else np.ascontiguousarray(value).tobytes()


def solution_bits(sol):
    return [bits(getattr(sol, f.name)) for f in dataclasses.fields(sol)]


@pytest.mark.parametrize("dim", [1, 3, 64])
def test_network_copies_are_c_ordered_and_read_only(dim):
    g, m = random_unitary(dim, 0), random_unitary(dim, 1)
    splitter = SplitterParams.from_beta(0.5)
    given = FeedbackNetwork(g, LAYOUTS["reversed"](g), np.asfortranarray(m), splitter)
    # the undo network's m = -g1^-1 comes from invert in Fortran order
    for net in (given, build_undo(g, m, splitter)):
        for op in (net.g1, net.g2, net.m):
            assert op.flags.c_contiguous and not op.flags.writeable
            with pytest.raises(ValueError):
                op[0, 0] = 5.0


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 16, 64])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_results_do_not_depend_on_the_memory_layout_of_the_operands(layout, dim):
    # bit-identical to the same values in C order, with the states as views of stride 3 and -3
    reorder, splitter = LAYOUTS[layout], SplitterParams.from_beta(0.3)
    for seed, step in itertools.product(range(3), (3, -3)):
        g1, g2, m = (random_unitary(dim, 3 * seed + k) for k in range(3))
        m = 0.5 * m  # a loop radius of at most 1/2, so the oracle converges in a few dozen steps
        psi = normalized_state(seed, dim)
        net = FeedbackNetwork(g1, g2, m, splitter)
        other = FeedbackNetwork(reorder(g1), reorder(g2), reorder(m), splitter)
        ref = solve_closed_form(net, psi)
        assert solution_bits(solve_closed_form(other, strided(psi, step))) == solution_bits(ref)
        sol, report = solve_by_iteration(other, strided(psi, step))
        ref_sol, ref_report = solve_by_iteration(net, psi)
        assert solution_bits(sol) == solution_bits(ref_sol) and report == ref_report
        vectors = {f: strided(getattr(ref, f), step) for f in VECTOR_FIELDS}
        spread = dataclasses.replace(ref, **vectors)
        assert bits(verify_fixed_point(other, spread)) == bits(verify_fixed_point(net, ref))
        assert bits(transmitted_probability(spread)) == bits(transmitted_probability(ref))
        for f, v in vectors.items():
            assert bits(norm_sq(v)) == bits(norm_sq(getattr(ref, f)))
        for op in (g1, g2, m):
            assert list(map(bits, invert(reorder(op)))) == list(map(bits, invert(op)))
            assert bits(spectral_radius(reorder(op))) == bits(spectral_radius(op))


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


VECTOR_FIELDS = ("psi_in", "psi1", "psi2", "psi4", "psi1p", "psi2p", "psi3p", "psi4p")


@pytest.mark.parametrize("field", VECTOR_FIELDS)
@pytest.mark.parametrize("defect", ["nan", "inf", "length"])
def test_verify_fixed_point_rejects_a_vector_that_is_not_a_finite_state(field, defect):
    net = FeedbackNetwork(random_unitary(2, 1), random_unitary(2, 2), random_unitary(2, 3),
                          SplitterParams.from_beta(0.3))
    sol = solve_closed_form(net, [1.0, 0.0])
    assert verify_fixed_point(net, sol) <= 1e-15
    vector = getattr(sol, field)
    if defect == "length":
        bad, message = np.append(vector, 0j), "dimension mismatch"
    else:
        bad, message = vector.copy(), "entries must be finite"
        bad[1] = float(defect)
    with pytest.raises(ValueError, match=message), warnings.catch_warnings():
        warnings.simplefilter("error")
        verify_fixed_point(net, dataclasses.replace(sol, **{field: bad}))


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


def test_transmission_past_the_float_range_is_inf_at_every_d():
    # |psi3'|^2 leaves the float range; np.vdot alone reads NaN for the d=2 copy on some kernels
    for dim in (1, 2):
        net = FeedbackNetwork(
            g1=np.diag([1e160 * (1 + 1j), 1.0][:dim]),
            g2=np.eye(dim),
            m=np.zeros((dim, dim)),
            splitter=SplitterParams.from_beta(0.5),
        )
        sol = solve_closed_form(net, np.eye(dim)[0])
        assert transmitted_probability(sol) == math.inf, dim
        # the late balance is |psi3'|^2 + |psi4'|^2 - |psi1'|^2 - ... = inf - inf
        assert sol.conservation_residual_t1 <= 1e-15, dim
        assert sol.conservation_residual_t2 == math.inf, dim


@pytest.mark.parametrize("size", [1e160, 1.3e308, 3e-162, 7e-163, 1e-150])
@pytest.mark.parametrize("gain", [1.0, 1e-10, 1e-20])
@pytest.mark.parametrize("dim", [1, 2])
def test_transmission_of_an_input_past_the_float_range_is_finite(dim, gain, size):
    # |psi|^2 overflows: the plain quotient reads inf / inf = NaN at gain 1, 0 at gain 1e-10;
    # at size 1.3e308 |psi_0| itself is past the float range, though its parts are not.
    # |psi|^2 underflows to a subnormal at 3e-162, where the quotient loses its bits, and to 0.0
    # at 7e-163. At size 1e-150 |psi|^2 is normal but |psi3'|^2 is not: a subnormal at gain
    # 1e-10, 0.0 at gain 1e-20
    net = FeedbackNetwork(gain * np.eye(dim), gain * np.eye(dim), np.zeros((dim, dim)),
                          SplitterParams.from_beta(0.5))
    psi = np.array([1 + 1j, 0.5 - 0.25j])[:dim]
    expected = transmitted_probability(solve_closed_form(net, psi))
    got = transmitted_probability(solve_closed_form(net, size * psi))
    assert got == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_transmission_of_subnormal_entries_is_the_exact_quotient():
    # a shift to psi_in's largest |entry| alone would need 2^1074, past the largest float
    sol = solve_closed_form(random_network(52, 2, beta=0.5), normalized_state(53, 2))
    tiny = 5e-324  # 2^-1074, the smallest subnormal
    sol = dataclasses.replace(sol, psi_in=np.array([tiny, 0j]), psi3p=np.array([0j, 2j * tiny]))
    assert transmitted_probability(sol) == 4.0


def test_transmission_of_a_psi3p_square_at_the_smallest_normal_is_the_exact_quotient():
    # |psi3'|^2 rounds to 2^-1022 itself; the input's scale 2^-2 would make both squares
    # subnormal, 31 ulps off
    sol = solve_closed_form(random_network(52, 2, beta=0.5), normalized_state(53, 2))
    z = complex(1.3071301044787962e-154, 7.186687334735336e-155)
    sol = dataclasses.replace(sol, psi_in=np.array([4.0, 0j]), psi3p=np.array([z, 0j]))
    assert norm_sq(sol.psi3p) == 2.0**-1022
    exact = (Fraction(z.real) ** 2 + Fraction(z.imag) ** 2) / 16
    assert abs(Fraction(transmitted_probability(sol)) - exact) <= Fraction(2, 2**53) * exact


def test_solve_records_a_finite_transmission_for_an_input_past_the_float_range(tmp_path, capsys):
    # |psi|^2 overflows at 1e160; it underflows to a subnormal at 3e-162 and to 0.0 at 7e-163
    for size in (1e160, 3e-162, 7e-163):
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps({"dim": 1, "g1": "identity", "g2": "identity", "m": "zero",
                                   "beta": 0.5, "input_state": [{"re": size, "im": size}]}))
        assert main(["solve", str(cfg), "--no-timestamp"]) == 0
        from_json = json.loads(capsys.readouterr().out)["transmitted_probability"]
        assert main(["solve", str(cfg), "--no-timestamp", "--format", "csv"]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("transmitted_probability,"))
        # the same network at input 1 + 1j gives 0.2499999999999999
        for value in (from_json, float(row.split(",")[2])):
            assert abs(value - 0.2499999999999999) <= 1e-15, size


def test_solve_of_an_all_zero_input_exits_1(tmp_path, capsys):
    cfg = tmp_path / "net.json"
    cfg.write_text(json.dumps({"dim": 2, "g1": "identity", "g2": "identity", "m": "zero",
                               "beta": 0.5, "input_state": [0.0, {"re": -0.0, "im": 0.0}]}))
    assert main(["solve", str(cfg), "--no-timestamp"]) == 1
    assert capsys.readouterr().err == "error: input_state must have nonzero norm\n"


@pytest.mark.parametrize("dim", [1, 2])
def test_conservation_residuals_past_the_float_range_read_inf_not_nan(dim):
    # an input whose |psi|^2 overflows leaves both balances at inf - inf
    net = FeedbackNetwork(np.eye(dim), np.eye(dim), np.zeros((dim, dim)),
                          SplitterParams.from_beta(0.5))
    sol = solve_closed_form(net, 1e160 * (1 + 1j) * np.eye(dim)[0])
    assert (sol.conservation_residual_t1, sol.conservation_residual_t2) == (math.inf, math.inf)


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
