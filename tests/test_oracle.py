import cmath
import math
import struct

import numpy as np
import pytest

from qtimeloop.linalg import SplitterParams, as_state, norm_sq, random_unitary, spectral_radius
from qtimeloop.network import (
    FeedbackNetwork,
    _arithmetic,
    _assemble,
    solve_closed_form,
    transmitted_probability,
    verify_fixed_point,
)
from qtimeloop.oracle import NotConvergedError, _iterate, loop_map, solve_by_iteration
from qtimeloop.scenarios import GrandfatherParams, build_grandfather


def normalized_state(seed, dim):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / math.sqrt(norm_sq(v))


def contractive_network(seed, dim, channel_scale=0.4, beta=0.5):
    # scaling both channels bounds ||T|| <= channel_scale regardless of beta
    return FeedbackNetwork(
        g1=channel_scale * random_unitary(dim, seed),
        g2=channel_scale * random_unitary(dim, seed + 1),
        m=random_unitary(dim, seed + 2),
        splitter=SplitterParams.from_beta(beta),
    )


# ---------------------------------------------------------------- loop map

def test_loop_map_blocked_channel_scalar():
    # hand substitution for g1=0, g2=1, m=e^{i phi}: T = alpha^2 e^{i phi},
    # S = -i alpha beta e^{i phi}
    beta, phi = 0.1, 0.7
    alpha = math.sqrt(1 - beta**2)
    net = FeedbackNetwork(
        g1=np.zeros((1, 1)),
        g2=np.eye(1),
        m=np.array([[cmath.exp(1j * phi)]]),
        splitter=SplitterParams.from_beta(beta),
    )
    t, s = loop_map(net)
    assert t[0, 0] == pytest.approx(alpha**2 * cmath.exp(1j * phi), abs=1e-15)
    assert s[0, 0] == pytest.approx(-1j * alpha * beta * cmath.exp(1j * phi), abs=1e-15)


def test_loop_map_no_cross_coupling_decouples_drive():
    net = FeedbackNetwork(
        g1=random_unitary(3, 0),
        g2=random_unitary(3, 1),
        m=random_unitary(3, 2),
        splitter=SplitterParams.from_alpha(1.0),
    )
    t, s = loop_map(net)
    np.testing.assert_allclose(t, net.m @ net.g2, atol=1e-15)
    np.testing.assert_allclose(s, np.zeros((3, 3)), atol=1e-15)


def test_loop_map_equal_paths_balanced_coupler():
    g1 = random_unitary(3, 3)
    m = random_unitary(3, 4)
    net = FeedbackNetwork(g1, -g1, m, SplitterParams.from_beta(math.sqrt(0.5)))
    t, s = loop_map(net)
    np.testing.assert_allclose(t, -(m @ g1), atol=1e-12)
    np.testing.assert_allclose(s, np.zeros((3, 3)), atol=1e-12)
    sol, report = solve_by_iteration(net, normalized_state(5, 3))
    np.testing.assert_allclose(sol.psi4, np.zeros(3), atol=1e-14)


# ---------------------------------------------------------------- iteration

@pytest.mark.parametrize("seed,dim", [(0, 1), (1, 2), (2, 4), (3, 8)])
def test_iteration_matches_closed_form_on_contractive_networks(seed, dim):
    net = contractive_network(seed * 10, dim)
    psi = normalized_state(seed, dim)
    closed = solve_closed_form(net, psi)
    iterated, report = solve_by_iteration(net, psi, tol=1e-12)
    assert report.converged
    scale = float(np.max(np.abs(closed.psi3p)))
    assert float(np.max(np.abs(closed.psi3p - iterated.psi3p))) <= 1e-10 * max(scale, 1.0)


def test_report_carries_the_exact_loop_radius():
    net = contractive_network(20, 4)
    _, report = solve_by_iteration(net, normalized_state(2, 4))
    assert report.loop_spectral_radius_estimate == spectral_radius(loop_map(net)[0])


def test_iteration_blocked_channel_recovers_full_transmission():
    net = build_grandfather(GrandfatherParams(beta=0.1, phi=0.0))
    sol, report = solve_by_iteration(net, np.ones(1, dtype=complex))
    assert report.converged
    assert report.iterations_used <= 10_000
    assert transmitted_probability(sol) == pytest.approx(1.0, abs=1e-8)
    # convergence ratio is alpha^2 = 0.99 for this loop
    assert report.loop_spectral_radius_estimate == pytest.approx(0.99, abs=1e-6)


def test_iteration_transparent_coupler_converges_immediately():
    net = FeedbackNetwork(
        g1=random_unitary(3, 20),
        g2=random_unitary(3, 21),
        m=random_unitary(3, 22),
        splitter=SplitterParams.from_alpha(1.0),
    )
    psi = normalized_state(23, 3)
    sol, report = solve_by_iteration(net, psi)
    assert report.iterations_used == 1
    np.testing.assert_allclose(sol.psi4, np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(sol.psi3p, net.g1 @ psi, atol=1e-12)


def test_converged_iteration_passes_fixed_point_certification():
    net = contractive_network(30, 4)
    psi = normalized_state(31, 4)
    tol = 1e-12
    sol, report = solve_by_iteration(net, psi, tol=tol)
    assert report.final_update_norm <= tol
    assert verify_fixed_point(net, sol) <= 10 * tol


def test_partial_sums_equal_truncated_geometric_series():
    # stopping at a loose tolerance after k updates must reproduce
    # (sum_{j<k} T^j) S psi exactly
    net = contractive_network(40, 3, channel_scale=0.8)
    psi = normalized_state(41, 3)
    t, s = loop_map(net)
    drive = s @ psi
    seen = set()
    for loose_tol in (0.3, 0.1, 0.03, 0.01, 0.003):
        sol, report = solve_by_iteration(net, psi, tol=loose_tol)
        k = report.iterations_used
        seen.add(k)
        partial = np.zeros(3, dtype=complex)
        power = np.eye(3, dtype=complex)
        for _ in range(k):
            partial = partial + power @ drive
            power = t @ power
        np.testing.assert_allclose(sol.psi4, partial, atol=1e-13)
    assert any(k <= 5 for k in seen)


def test_update_norm_decays_at_the_spectral_radius_rate():
    net = contractive_network(50, 4, channel_scale=0.9)
    psi = normalized_state(51, 4)
    t, s = loop_map(net)
    radius = spectral_radius(t)
    assert radius < 1.0
    drive = s @ psi
    psi4 = np.zeros(4, dtype=complex)
    updates = []
    for _ in range(60):
        new = t @ psi4 + drive
        updates.append(float(np.max(np.abs(new - psi4))))
        psi4 = new
    ratios = [updates[i + 1] / updates[i] for i in range(len(updates) - 11, len(updates) - 1)]
    for ratio in ratios:
        assert radius / 2 <= ratio <= radius * 2


def test_not_converged_carries_report():
    net = contractive_network(60, 3, channel_scale=0.9)
    with pytest.raises(NotConvergedError) as exc:
        solve_by_iteration(net, normalized_state(61, 3), tol=1e-15, max_iter=3)
    report = exc.value.report
    assert report.iterations_used == 3
    assert not report.converged
    assert report.final_update_norm > 1e-15


def test_divergent_loop_warns_and_raises():
    # |T| = 2 alpha^2 > 1: the series has nothing to converge to
    net = FeedbackNetwork(
        g1=np.zeros((1, 1)),
        g2=2.0 * np.eye(1),
        m=np.eye(1),
        splitter=SplitterParams.from_beta(0.1),
    )
    with pytest.warns(RuntimeWarning, match="spectral radius"):
        with pytest.raises(NotConvergedError):
            solve_by_iteration(net, np.ones(1), max_iter=50)


def _scalar_map(g2, splitter, psi=1.0, g1=0.0, m=1.0):
    net = FeedbackNetwork(
        g1=np.array([[g1]]), g2=np.array([[g2]]), m=np.array([[m]]), splitter=splitter
    )
    return _d1_map(net, psi)


def _d1_map(net, psi):
    t, s = loop_map(net)
    return t, s @ np.array([psi], dtype=complex)


# name -> (T, drive, max_iter) of a d=1 loop map
D1_MAPS = {
    **{
        f"grandfather-beta{beta}": (
            *_d1_map(
                build_grandfather(GrandfatherParams(beta=beta, theta=0.7)), cmath.exp(0.9j)
            ),
            1_000_000,
        )
        for beta in (0.3, 0.1, 0.03)
    },
    "undriven-alpha1": (
        *_scalar_map(cmath.exp(0.4j), SplitterParams.from_alpha(1.0), g1=0.5, m=cmath.exp(1.1j)),
        100,
    ),
    "budget-3": (
        *_d1_map(
            build_grandfather(GrandfatherParams(beta=0.1, theta=0.7, phi=0.3)), cmath.exp(0.9j)
        ),
        3,
    ),
    # |T| > 1: the iterate overflows to inf
    "divergent-real": (*_scalar_map(2.0, SplitterParams.from_beta(0.1)), 5000),
    "divergent-complex": (
        *_scalar_map(2.0 * cmath.exp(0.3j), SplitterParams.from_beta(0.1)), 5000
    ),
    # step 501 is 1.3e308 (1 + 1j): finite parts whose modulus overflows
    "divergent-modulus": (
        np.array([[4.0 + 0j]]), np.array([1.3e308 / 4.0**500 * (1 + 1j)]), 1000
    ),
}


def _random_map(dim, budget):
    t, s = loop_map(contractive_network(10, dim, channel_scale=1.0, beta=0.3))
    return t, s @ normalized_state(13, dim), budget


# name -> (T, drive, max_iter) of a d >= 2 loop map: seeded random unitaries at beta = 0.3
WIDE_MAPS = {
    **{f"random-d{dim}": _random_map(dim, 1_000_000) for dim in (2, 4, 16)},
    "random-d4-budget-3": _random_map(4, 3),
    # |T| = 2: the iterate overflows to inf
    "divergent-d2": (np.diag([2.0, 2.0j]), np.array([1.0, 1.0 - 1.0j]), 5000),
}


def reference_loop(t, drive, tol, max_iter):
    """The traversal sum on numpy arrays at every d: psi4 <- T psi4 + drive from psi4 = 0."""
    x = np.zeros(drive.shape[0], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, max_iter + 1):
            new = t @ x + drive
            update = float(np.abs(new - x).max())
            x = new
            if update <= tol or not math.isfinite(update):
                break
    return x, iterations, update, update <= tol


def python_abs(z):
    try:
        return abs(z)
    except OverflowError:  # finite parts, modulus past the float range
        return math.inf


@pytest.mark.parametrize("case", sorted(D1_MAPS))
def test_scalar_recurrence_is_bit_equal_to_matrix_loop(case):
    t, drive, max_iter = D1_MAPS[case]
    fast = _iterate(t, drive, 1e-12, max_iter)
    reference = reference_loop(t, drive, 1e-12, max_iter)
    n = reference[1]
    previous = reference_loop(t, drive, 0.0, n - 1)[0] if n > 1 else np.zeros(1, complex)
    # the d=1 iterate is a Python complex; wrapped, it is the matrix loop's 1-vector
    assert type(fast[0]) is complex
    assert np.atleast_1d(fast[0]).dtype == reference[0].dtype
    assert np.atleast_1d(fast[0]).tobytes() == reference[0].tobytes()
    assert fast[1] == n
    # the update is Python's |x_n - x_(n-1)|, which may differ from numpy's in the last bit
    expected = python_abs(complex(reference[0][0]) - complex(previous[0]))
    assert struct.pack("<d", fast[2]) == struct.pack("<d", expected)
    assert fast[3] == reference[3]


def test_scalar_recurrence_stops_at_the_first_step_within_tol():
    # a tol equal to a reported update, or one ulp either side of it
    t, drive, _ = D1_MAPS["grandfather-beta0.1"]
    t_scalar, c = complex(t[0, 0]), complex(drive[0])
    steps, x = [], 0j
    for _ in range(100):
        new = t_scalar * x + c
        steps.append(abs(new - x))
        x = new
    for k in range(1, 40):
        edge = _iterate(t, drive, 0.0, k)[2]
        for tol in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)):
            psi4, iterations, update, converged = _iterate(t, drive, tol, 100)
            first = next(n for n, step in enumerate(steps, 1) if step <= tol)
            assert (iterations, update, converged) == (first, steps[first - 1], True)
            expected = reference_loop(t, drive, -1.0, first)[0]
            assert np.atleast_1d(psi4).dtype == expected.dtype
            assert np.atleast_1d(psi4).tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", sorted(WIDE_MAPS))
def test_matrix_recurrence_is_bit_equal_to_the_reference_loop(case):
    t, drive, max_iter = WIDE_MAPS[case]
    psi4, iterations, update, converged = _iterate(t, drive, 1e-12, max_iter)
    reference = reference_loop(t, drive, 1e-12, max_iter)
    assert psi4.dtype == reference[0].dtype
    assert psi4.tobytes() == reference[0].tobytes()
    assert iterations == reference[1]
    assert struct.pack("<d", update) == struct.pack("<d", reference[2])
    assert converged == reference[3]


def array_tail_solution(net, psi):
    """The oracle's answer with its tail on arrays, as it was written before the
    d=1 iterate stayed a Python complex: the iterate wrapped in a 1-vector, the
    early coupler as array operations, then all six operands converted to the
    dimension's arithmetic for the shared assembly."""
    psi = as_state(psi, net.dim)
    t, s = loop_map(net)
    psi4 = np.atleast_1d(_iterate(t, s @ psi, 1e-12, 1_000_000)[0])
    a, b = net.splitter.alpha, net.splitter.beta
    psi1, psi2 = a * psi - 1j * b * psi4, a * psi4 - 1j * b * psi
    arithmetic = _arithmetic(net.dim)
    operands = map(arithmetic[0], (net.g1, net.g2, psi, psi1, psi2, psi4))
    return _assemble(net, arithmetic, *operands, None)


def _solution_bits(sol):
    vectors = (sol.psi_in, sol.psi1, sol.psi2, sol.psi4, sol.psi1p, sol.psi2p, sol.psi3p, sol.psi4p)
    residuals = struct.pack("<2d", sol.conservation_residual_t1, sol.conservation_residual_t2)
    return [(v.dtype, v.shape, v.tobytes()) for v in vectors], residuals, sol.denom_condition


TAIL_CASES = {
    **{
        f"grandfather-beta{beta}-phase{phase}": (
            build_grandfather(GrandfatherParams(beta=beta, theta=0.7)), [cmath.exp(1j * phase)]
        )
        for beta in (0.3, 0.1, 0.03)
        for phase in (0.0, 1.1, -2.0)
    },
    # alpha = 1: the loop is undriven and the coupler products carry signed zeros
    **{
        f"undriven-alpha1-input{k}": (
            FeedbackNetwork([[0.5]], [[cmath.exp(0.4j)]], [[cmath.exp(1.1j)]],
                            SplitterParams.from_alpha(1.0)),
            [psi],
        )
        for k, psi in enumerate((complex(-0.0, 1.0), complex(-2.0, -0.0)))
    },
    **{
        f"random-d{dim}": (contractive_network(10, dim, channel_scale=1.0, beta=0.3),
                           normalized_state(13, dim))
        for dim in (2, 4, 16)
    },
}


@pytest.mark.parametrize("case", sorted(TAIL_CASES))
def test_oracle_solution_is_bit_equal_to_the_array_tail(case):
    net, psi = TAIL_CASES[case]
    sol, _ = solve_by_iteration(net, psi)
    assert _solution_bits(sol) == _solution_bits(array_tail_solution(net, psi))


# The d=1 oracle's traversal counts on the grandfather loop; theta cancels out
# of them. The change that replaces the one-traversal loop (ROADMAP item 5)
# re-pins these, with old -> new counts in CHANGES.md.
@pytest.mark.parametrize("phase, beta, traversals", [
    (0.0, 0.3, 281), (0.0, 0.1, 2_521), (0.0, 0.03, 26_796), (0.0, 0.01, 230_229),
    (1.1, 0.03, 26_795), (1.1, 0.01, 230_282),
    (-2.0, 0.03, 26_793), (-2.0, 0.01, 230_259),
])
def test_grandfather_traversal_counts(phase, beta, traversals):
    for theta in (0.0, 0.7, -2.9, 1.3):
        net = build_grandfather(GrandfatherParams(beta=beta, theta=theta))
        _, report = solve_by_iteration(net, [cmath.exp(1j * phase)])
        assert (report.iterations_used, report.converged) == (traversals, True)


def test_iteration_rejects_bad_budget():
    net = contractive_network(70, 2)
    with pytest.raises(ValueError):
        solve_by_iteration(net, normalized_state(71, 2), max_iter=0)
