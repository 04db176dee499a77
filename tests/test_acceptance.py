"""Acceptance gate: every quantitative claim the package is built around,
checked at its stated tolerance. One PASS/FAIL line prints per criterion
(run with -s or -rA to see them on success)."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtimeloop.cli import main
from qtimeloop.linalg import SplitterParams, invert, norm_sq, random_unitary, spectral_radius
from qtimeloop.network import FeedbackNetwork, solve_closed_form, transmitted_probability
from qtimeloop.oracle import loop_map, solve_by_iteration
from qtimeloop.scenarios import (
    SPECIAL_CASES,
    build_grandfather,
    build_undo,
    grandfather_case,
    grandfather_transmission,
    perturbative_check,
    phase_scan,
    predicted_fwhm,
    special_case,
)

DIMS = (1, 2, 4, 8)


def report(num, label, worst, bound):
    ok = worst <= bound
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label} "
          f"(worst {worst:.3e}, bound {bound:g})")
    assert ok, f"criterion {num}: {label}: worst {worst} exceeds {bound}"


def normalized_state(seed, dim):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / math.sqrt(norm_sq(v))


def solve_grandfather(beta, theta=0.0, phi=0.0):
    net = build_grandfather(beta, theta, phi)
    return solve_closed_form(net, np.ones(1, dtype=complex))


def sampled_contractive_network(index):
    """Seeded random-unitary network with loop spectral radius <= 0.95.

    Operators are redrawn along with beta: at d=1 some phase draws pin
    |T| = 1 for every coupling, so varying beta alone cannot escape.
    """
    dim = DIMS[index % 4]
    rng = np.random.default_rng(4000 + index)
    for attempt in range(200):
        base = 100_000 + 1000 * index + 3 * attempt
        g1 = random_unitary(dim, base)
        g2 = random_unitary(dim, base + 1)
        m = random_unitary(dim, base + 2)
        beta = float(rng.uniform(0.1, 0.9))
        net = FeedbackNetwork(g1, g2, m, SplitterParams.from_beta(beta))
        t, _ = loop_map(net)
        if spectral_radius(t) <= 0.95:
            return net
    raise AssertionError(f"no contractive network found for instance {index}")


def sampled_offresonant_instance(index):
    """Seeded random unitaries with a well-conditioned (1 - m g2) resolvent.

    The finite-difference derivative loses accuracy like the cube of the
    resolvent norm, so near-resonant draws (which the checked operation
    itself treats as an error at exact resonance) are redrawn.
    """
    eye = np.eye(4, dtype=complex)
    for attempt in range(200):
        base = 200_000 + 1000 * index + 3 * attempt
        g1 = random_unitary(4, base)
        g2 = random_unitary(4, base + 1)
        m = random_unitary(4, base + 2)
        _, condition = invert(eye - m @ g2)
        if condition <= 5.0:
            return g1, g2, m
    raise AssertionError(f"no off-resonant instance found for index {index}")


def test_criterion_1_paradox_resolution():
    worst = 0.0
    for beta in (0.01, 0.05, 0.1, 0.3, 0.5, 0.9):
        for theta in (0.0, 1.3):
            t = transmitted_probability(solve_grandfather(beta, theta=theta, phi=0.0))
            worst = max(worst, abs(t - 1.0))
    report(1, "transmitted = 1 at phi=0 for every coupling", worst, 1e-10)


def test_criterion_2_lineshape():
    worst = 0.0
    for beta in np.linspace(0.05, 0.95, 20):
        for phi in np.linspace(-math.pi, math.pi, 41):
            got = transmitted_probability(solve_grandfather(float(beta), phi=float(phi)))
            worst = max(worst, abs(got - grandfather_transmission(float(beta), float(phi))))
    report(2, "solver matches the analytic lineshape on a 20x41 grid", worst, 1e-12)


def test_criterion_3_amplitude_ratios():
    r1, r2, r4 = grandfather_case(0.1, 0.0, 0.0)[1]["ratios"]
    expected = (0.0, 10.0, math.sqrt(0.99) / 0.1)
    worst = max(abs(got - want) for got, want in zip((r1, r2, r4), expected))
    report(3, "amplitude ratios (0, 1/beta, alpha/beta) at beta=0.1", worst, 1e-10)


def test_criterion_4_special_cases():
    worst = 0.0
    for i in range(20):
        dim = DIMS[i % 4]
        for name in SPECIAL_CASES:
            [(_, residual, _)], _ = special_case(name, 200 + i, dim=dim)
            worst = max(worst, residual)
    undo_betas = (0.1, 0.5, 0.9)
    for i in range(20):
        dim = DIMS[i % 4]
        g1 = random_unitary(dim, 300 + 3 * i)
        g2 = random_unitary(dim, 301 + 3 * i)
        psi = normalized_state(302 + 3 * i, dim)
        net = build_undo(g1, g2, SplitterParams.from_beta(undo_betas[i % 3]))
        sol = solve_closed_form(net, psi)
        worst = max(worst, float(np.max(np.abs(sol.psi3p - g1 @ psi))))
    report(4, "exact limits (alpha=1, beta=1, g2=-g1, undo) on 20 instances each", worst, 1e-11)


def test_criterion_5_width_law():
    worst = 0.0
    for beta in (0.1, 0.2, 0.3):
        predicted = predicted_fwhm(beta)
        window = 1.5 * predicted
        result = phase_scan(beta, -window, window, 4001)
        assert result.fwhm_numeric is not None
        worst = max(worst, abs(result.fwhm_numeric / predicted - 1.0))
    report(5, "numeric FWHM within 1% of 2 beta^2/alpha", worst, 0.01)


def test_criterion_6_oracle_equivalence():
    worst = 0.0
    for index in range(100):
        net = sampled_contractive_network(index)
        psi = normalized_state(5000 + index, net.dim)
        closed = solve_closed_form(net, psi)
        iterated, report_ = solve_by_iteration(net, psi, tol=1e-12)
        assert report_.converged
        scale = float(np.max(np.abs(closed.psi3p)))
        diff = float(np.max(np.abs(closed.psi3p - iterated.psi3p)))
        worst = max(worst, diff / scale)
    report(6, "closed form vs loop unrolling on 100 random networks", worst, 1e-8)


def test_criterion_7_perturbative_first_order():
    worst = 0.0
    for i in range(20):
        g1, g2, m = sampled_offresonant_instance(i)
        psi = normalized_state(790 + i, 4)
        _, _, rel = perturbative_check(g1, g2, m, psi, gamma=1e-4)
        worst = max(worst, rel)
    report(7, "finite-difference derivative vs first-order formula", worst, 1e-6)


def test_criterion_8_conservation_everywhere():
    worst = 0.0
    amplified = 0
    for beta in (0.01, 0.05, 0.1, 0.3, 0.5, 0.9):
        sol = solve_grandfather(beta, phi=0.0)
        worst = max(worst, sol.conservation_residual_t1, sol.conservation_residual_t2)
        if norm_sq(sol.psi4) > norm_sq(sol.psi_in):
            amplified += 1
    # beta < alpha in all but the beta=0.9 case: the loop current must
    # exceed the input there while conservation still holds
    assert amplified >= 5
    for i in range(20):
        dim = DIMS[i % 4]
        psi = normalized_state(900 + i, dim)
        net = FeedbackNetwork(
            random_unitary(dim, 910 + 3 * i),
            random_unitary(dim, 911 + 3 * i),
            random_unitary(dim, 912 + 3 * i),
            SplitterParams.from_beta(0.1 + 0.04 * i),
        )
        sol = solve_closed_form(net, psi)
        worst = max(worst, sol.conservation_residual_t1, sol.conservation_residual_t2)
    for index in range(0, 100, 5):
        net = sampled_contractive_network(index)
        sol = solve_closed_form(net, normalized_state(5000 + index, net.dim))
        worst = max(worst, sol.conservation_residual_t1, sol.conservation_residual_t2)
    report(8, "coupler conservation on every solvable instance", worst, 1e-11)


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "net.json"
    cfg.write_text(json.dumps({
        "dim": 2,
        "g1": "random-unitary:5",
        "g2": "random-unitary:6",
        "m": "random-unitary:7",
        "beta": 0.2,
        "input_state": "basis:0",
    }))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", str(cfg), "--no-timestamp", "--oracle", "--out", str(out_a)]) == 0
    assert main(["solve", str(cfg), "--no-timestamp", "--oracle", "--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()

    scan_a, scan_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scan", "--beta", "0.3", "--points", "301", "--out", str(scan_a)]) == 0
    assert main(["scan", "--beta", "0.3", "--points", "301", "--out", str(scan_b)]) == 0
    identical = identical and scan_a.read_bytes() == scan_b.read_bytes()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dim": 1, "g1": [[1.0, 0.0], [0.0, 1.0]], "g2": "identity",
        "m": "identity", "beta": 0.5, "input_state": "basis:0",
    }))
    exit_1 = main(["solve", str(bad)]) == 1

    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps({
        "dim": 1, "g1": "identity", "g2": "identity", "m": "identity",
        "alpha": 1.0, "input_state": "basis:0",
    }))
    exit_2 = main(["solve", str(singular)]) == 2

    divergent = tmp_path / "divergent.json"
    divergent.write_text(json.dumps({
        "dim": 1, "g1": "zero", "g2": [[{"re": 2.0, "im": 0.0}]], "m": "identity",
        "beta": 0.1, "input_state": "basis:0",
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        exit_3 = main(["solve", str(divergent), "--oracle", "--max-iter", "50"]) == 3

    capsys.readouterr()  # swallow CLI chatter so the verdict line stands alone
    failures = sum(1 for ok in (identical, exit_1, exit_2, exit_3) if not ok)
    report(9, "byte-identical reruns and exit codes 1/2/3", float(failures), 0.0)


@settings(max_examples=100, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3),
       dim=st.sampled_from(DIMS), beta=st.floats(0.05, 0.95))
def test_criterion_10_the_whole_network_is_unitary(seeds, dim, beta):
    # the paper's resolution: one output for each input, with probability
    # conserved; U is built column by column from basis inputs
    g1, g2, m = (random_unitary(dim, seed) for seed in seeds)
    net = FeedbackNetwork(g1, g2, m, SplitterParams.from_beta(beta))
    u = np.column_stack([solve_closed_form(net, e).psi3p for e in np.eye(dim)])
    worst = float(np.abs(u.conj().T @ u - np.eye(dim)).max())
    assert worst <= 1e-12, f"criterion 10: |U^H U - I|_max = {worst:.3e} exceeds 1e-12"
