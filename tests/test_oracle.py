import cmath
import math

import mpmath
import numpy as np
import pytest

from qtimeloop.linalg import SplitterParams, as_state, norm_sq, random_unitary, spectral_radius
from qtimeloop.network import (
    FeedbackNetwork,
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
    updates = [_iterate(t, drive, 0.0, k)[2] for k in range(1, 61)]  # tol = 0 runs k steps
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


U = 2.0**-53  # unit roundoff


def _inf_norm(a) -> float:
    """The max-norm of a vector, or the matrix norm it induces: the largest row sum."""
    a = np.abs(np.atleast_1d(a))
    return float(a.sum(axis=1).max() if a.ndim == 2 else a.max())


def exact_fixed_point(t, drive):
    """(x, ||(I - T)^-1||) for x = T x + drive: the closed form of the map at 50 digits,
    from the float T and drive."""
    with mpmath.workdps(50):
        inverse = mpmath.inverse(mpmath.eye(t.shape[0]) - mpmath.matrix(t.tolist()))
        x = inverse * mpmath.matrix(drive.tolist())
        return [complex(v) for v in x], float(mpmath.mnorm(inverse, "inf"))


def max_gap(got, want) -> float:
    return max(abs(complex(z) - w) for z, w in zip(np.atleast_1d(got), want))


def step_rounding(t, x, drive) -> float:
    """A bound on the rounding of one traversal x <- T x + drive, in the max-norm."""
    return 4 * (t.shape[0] + 2) * U * (_inf_norm(t) * _inf_norm(x) + _inf_norm(drive))


MAPS = {**D1_MAPS, **WIDE_MAPS}


@pytest.mark.parametrize("case", sorted(MAPS))
def test_traversal_sum_meets_the_closed_form_of_its_map(case):
    t, drive, max_iter = MAPS[case]
    tol = 1e-12
    psi4, iterations, update, converged = _iterate(t, drive, tol, max_iter)
    assert converged == (update <= tol)
    if converged:
        # x - psi4 = (I - T)^-1 (T (psi4 - previous) - last rounding), so the truncation
        # is at most ||(I - T)^-1|| ||T|| tol
        x, inverse_norm = exact_fixed_point(t, drive)
        bound = inverse_norm * (_inf_norm(t) * tol + step_rounding(t, psi4, drive))
        assert max_gap(psi4, x) <= bound
    elif iterations == max_iter:
        # a spent budget; test_partial_sums_equal_truncated_geometric_series checks its sums
        assert tol < update < math.inf
    else:  # an iterate or its modulus left the float range; the step before was finite
        assert update == math.inf
        assert _iterate(t, drive, 0.0, iterations - 1)[2] < math.inf


def test_scalar_recurrence_stops_at_the_first_step_within_tol():
    # a tol equal to a reported update, or one ulp either side of it; tol = 0 runs k steps
    t, drive, _ = D1_MAPS["grandfather-beta0.1"]
    steps = [_iterate(t, drive, 0.0, k)[1:3] for k in range(1, 101)]
    assert [k for k, _ in steps] == list(range(1, 101))
    updates = [update for _, update in steps]
    for edge in updates[:39]:
        for tol in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)):
            psi4, iterations, update, converged = _iterate(t, drive, tol, 100)
            first = next(n for n, step in enumerate(updates, 1) if step <= tol)
            assert (iterations, update, converged) == (first, updates[first - 1], True)
            assert psi4 == _iterate(t, drive, 0.0, first)[0]


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
def test_oracle_solution_meets_the_exact_fixed_point(case):
    net, psi = TAIL_CASES[case]
    tol = 1e-12
    sol, _ = solve_by_iteration(net, psi, tol=tol)
    t, s = loop_map(net)
    drive = s @ as_state(psi, net.dim)
    x, inverse_norm = exact_fixed_point(t, drive)
    truncation = _inf_norm(t) * tol
    assert max_gap(sol.psi4, x) <= inverse_norm * (truncation + step_rounding(t, sol.psi4, drive))
    # the tail derives every other amplitude from psi4; verify_fixed_point re-derives them
    scale = (1 + _inf_norm(net.m)) * (1 + _inf_norm(net.g1) + _inf_norm(net.g2))
    rounding = 8 * (net.dim + 2) * U * scale * (_inf_norm(sol.psi_in) + _inf_norm(sol.psi4))
    assert verify_fixed_point(net, sol) <= truncation + rounding
    assert np.array_equal(sol.psi_in, as_state(psi, net.dim)) and sol.denom_condition is None


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
