"""Each comparison of the solver at the value where its strictness decides.

Every test here puts one input exactly on a threshold: the oracle's budget,
tolerance, loop radius and stop test, the fixed-point tolerance, the pivot
floor and condition cap of ``invert``, the largest random unitary, the
lineshape's lower beta, the smallest phase scan and a half-maximum sample.
Turning one of these comparisons from strict to non-strict, or back, fails
the test next to it.
"""

import math
import warnings

import numpy as np
import pytest

from qtimeloop.linalg import (
    CONDITION_CAP,
    DIM_CAP,
    PIVOT_FLOOR,
    SplitterParams,
    invert,
    random_unitary,
    spectral_radius,
)
from qtimeloop.network import FeedbackNetwork, solve_closed_form, verify_fixed_point
from qtimeloop.oracle import NotConvergedError, loop_map, solve_by_iteration
from qtimeloop.scenarios import GrandfatherParams, _interpolated_fwhm, phase_scan


def test_oracle_runs_a_budget_of_one_traversal_and_a_tol_of_zero():
    # alpha = 1 leaves the loop undriven: the first traversal is already exact
    eye = np.eye(2, dtype=complex)
    net = FeedbackNetwork(eye, -eye, eye, SplitterParams.from_beta(0.0))
    _, report = solve_by_iteration(net, [1.0, 0.5j], max_iter=1)
    assert (report.iterations_used, report.converged) == (1, True)
    _, report = solve_by_iteration(net, [1.0, 0.5j], tol=0.0)
    assert (report.iterations_used, report.final_update_norm, report.converged) == (1, 0.0, True)


def test_oracle_warns_at_a_loop_radius_of_exactly_one():
    # T = m (alpha^2 g2 - beta^2 g1) = 1 * (0.25 * 4 - beta^2 * 0) = 1 exactly, with a nonzero drive
    net = FeedbackNetwork([[0.0]], [[4.0]], [[1.0]], SplitterParams(alpha=0.5, beta=math.sqrt(0.75)))
    t, _ = loop_map(net)
    assert spectral_radius(t) == 1.0
    with pytest.warns(RuntimeWarning, match="loop spectral radius 1 >= 1"):
        with pytest.raises(NotConvergedError):
            solve_by_iteration(net, [1.0], max_iter=10)


def test_matrix_oracle_stops_on_an_update_equal_to_tol():
    # alpha = beta makes T = m (alpha^2 - beta^2) g = 0: the first update is max|drive|, the second 0
    x = math.sqrt(0.5)
    eye = np.eye(2, dtype=complex)
    net = FeedbackNetwork(eye, eye, eye, SplitterParams(alpha=x, beta=x))
    psi = np.array([1.0, 0.5j])
    t, s = loop_map(net)
    assert not t.any()
    tol = float(np.abs(s @ psi).max())
    _, report = solve_by_iteration(net, psi, tol=tol)
    assert (report.iterations_used, report.final_update_norm, report.converged) == (1, tol, True)


def test_verify_fixed_point_is_quiet_at_a_residual_equal_to_tol():
    net = FeedbackNetwork(random_unitary(3, 5), random_unitary(3, 6), random_unitary(3, 7),
                          SplitterParams.from_beta(0.4))
    sol = solve_closed_form(net, [1.0, 0.5j, -0.25])
    residual = verify_fixed_point(net, sol, tol=math.inf)
    assert residual > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_fixed_point(net, sol, tol=residual) == residual


def test_invert_accepts_a_pivot_of_exactly_the_floor():
    inverse, condition = invert([[PIVOT_FLOOR]])
    assert (inverse[0, 0], condition) == (1.0 / PIVOT_FLOOR, 1.0)


def test_invert_accepts_a_condition_of_exactly_the_cap():
    _, condition = invert(np.diag([1.0, CONDITION_CAP]))
    assert condition == CONDITION_CAP


def test_random_unitary_draws_at_the_dimension_cap():
    assert random_unitary(DIM_CAP, 0).shape == (DIM_CAP, DIM_CAP)


def test_grandfather_rejects_beta_zero_as_outside_the_open_interval():
    with pytest.raises(ValueError, match="strictly inside"):
        GrandfatherParams(beta=0.0)


def test_phase_scan_runs_three_points():
    result = phase_scan(GrandfatherParams(beta=0.1, theta=0.7), -1.0, 1.0, 3)
    assert [phi for phi, _ in result.points] == [-1.0, 0.0, 1.0]


def test_crossing_lands_on_a_sample_exactly_at_half():
    # the crossings are the samples at 0.0 and 1.0 themselves
    assert _interpolated_fwhm([0.0, 0.5, 1.0], np.array([0.5, 1.0, 0.5])) == 1.0
