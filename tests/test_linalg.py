import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtimeloop.linalg import (
    CONDITION_CAP,
    DIM_CAP,
    PIVOT_FLOOR,
    SingularMatrixError,
    SplitterParams,
    _couple,
    as_operator,
    as_state,
    invert,
    norm_sq,
    random_unitary,
    spectral_radius,
)


def random_complex_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_complex_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# ---------------------------------------------------------------- products

def test_mat_mul_inverse_gives_identity():
    rng = np.random.default_rng(2)
    a = random_complex_matrix(rng, 4) + 4.0 * np.eye(4)
    inv, _ = invert(a)
    assert np.max(np.abs(a @ inv - np.eye(4))) < 1e-12


# ---------------------------------------------------------------- inversion

def test_invert_identity():
    inv, cond = invert(np.eye(3))
    np.testing.assert_allclose(inv, np.eye(3), atol=1e-15)
    assert cond == 1.0


def test_invert_scalar_diagonal():
    inv, _ = invert(2.0 * np.eye(2))
    np.testing.assert_allclose(inv, 0.5 * np.eye(2), atol=1e-15)


def test_invert_unitary_equals_adjoint():
    u = random_unitary(4, seed=11)
    inv, cond = invert(u)
    np.testing.assert_allclose(inv, u.conj().T, atol=1e-12)
    assert cond < 1e3


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert(np.zeros((2, 2)))
    exc = pytest.raises(SingularMatrixError, invert, np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert exc.value.condition is not None


def test_invert_zero_pivot_reports_infinite_condition():
    for a in (np.zeros((1, 1)), np.zeros((3, 3)), np.array([[1.0, 1.0], [1.0, 1.0]])):
        with pytest.raises(SingularMatrixError) as exc:
            invert(a)
        assert exc.value.condition == math.inf


@pytest.mark.parametrize("dim", [4, 16, 64])
def test_invert_matches_scipy_lu_reference_bit_for_bit(dim):
    sla = pytest.importorskip("scipy.linalg")
    a = random_complex_matrix(np.random.default_rng(100 + dim), dim)
    inv, cond = invert(a)
    lu, piv = sla.lu_factor(a)
    assert inv.tobytes() == sla.lu_solve((lu, piv), np.eye(dim, dtype=complex)).tobytes()
    assert cond == np.linalg.cond(a, 1)


U = Fraction(1, 2**53)  # unit roundoff


def assert_inverts_to_the_exact_reciprocal(z: complex):
    """invert([[z]]) raises below PIVOT_FLOOR, else is (1/z, 1.0) within 7u |1/z| plus the
    underflow floor: divided by the larger part, 1/z rounds 4.5u in its real part, 6.5u in
    its imaginary part, and a subnormal part loses up to 2^-1075."""
    if math.hypot(z.real, z.imag) < PIVOT_FLOOR:
        with pytest.raises(SingularMatrixError):
            invert([[z]])
        return
    inv, cond = invert([[z]])
    re, im = Fraction(z.real), Fraction(z.imag)
    square = re * re + im * im
    gap_re, gap_im = Fraction(inv[0, 0].real) - re / square, Fraction(inv[0, 0].imag) + im / square
    # |gap| <= 7u |1/z| + 2^-1072 follows from |gap|^2 <= (7u)^2 / |z|^2 + 2^-2144
    assert gap_re**2 + gap_im**2 <= 49 * U**2 / square + Fraction(1, 2**2144), z
    assert cond == 1.0


def d1_invert_inputs(near_max: bool) -> list[complex]:
    """Unit-scale draws, parts on independent scales 1e-150 to 1e150, and an edge grid:
    EDGE_PARTS, +-0.5, +-1, +-3, +-1e+-150 and parts near the largest double. near_max
    picks those whose parts are both 1e308 or more, else all the others."""
    rng = np.random.default_rng(101)
    inputs = [random_complex_matrix(rng, 1).item() for _ in range(2000)]
    parts = rng.standard_normal((2000, 2)) * 10.0 ** rng.uniform(-150.0, 150.0, (2000, 2))
    sizes = (0.5, 1.0, 3.0, 1e-150, 1e150, 1e308, 1.7e308)
    edge = (*EDGE_PARTS, *(sign * size for size in sizes for sign in (1.0, -1.0)))
    inputs += [complex(re, im) for re, im in (*parts, *itertools.product(edge, repeat=2))]
    return [z for z in inputs if (min(abs(z.real), abs(z.imag)) >= 1e308) == near_max]


def test_invert_at_d1_is_the_exact_reciprocal():
    for z in d1_invert_inputs(near_max=False):
        assert_inverts_to_the_exact_reciprocal(z)


def test_invert_at_d1_of_parts_near_the_largest_double():
    for z in d1_invert_inputs(near_max=True):
        assert_inverts_to_the_exact_reciprocal(z)


@pytest.mark.parametrize("dim", [2, 4, 16, 64])
def test_invert_condition_is_the_1_norm_condition_number(dim):
    rng = np.random.default_rng(300 + dim)
    for _ in range(5):
        a = random_complex_matrix(rng, dim)
        assert invert(a)[1] == np.linalg.cond(a, 1)


def test_invert_condition_sees_an_ill_conditioned_triangle():
    # unit upper triangle with -1 above the diagonal: every pivot is 1, but
    # kappa_1 = d 2^(d-1), so a pivot ratio reads 1 where kappa_1 is huge
    def triangle(d):
        return np.eye(d) - np.triu(np.ones((d, d)), 1)

    assert invert(triangle(20))[1] == 20 * 2.0**19 == 1.048576e7
    with pytest.raises(SingularMatrixError) as exc:
        invert(triangle(40))
    assert exc.value.condition == 40 * 2.0**39 > CONDITION_CAP


def test_invert_accepts_a_tiny_well_conditioned_matrix():
    inv, cond = invert(1e-301 * np.eye(2))
    np.testing.assert_allclose(inv, 1e301 * np.eye(2), rtol=1e-15)
    assert cond == pytest.approx(1.0, rel=1e-15)


def test_invert_residual_scales_with_condition():
    rng = np.random.default_rng(6)
    for _ in range(5):
        a = random_complex_matrix(rng, 6)
        inv, cond = invert(a)
        if cond <= 1e10:
            residual = np.max(np.abs(inv @ a - np.eye(6)))
            assert residual <= cond * 1e-14


# ---------------------------------------------------------------- diagnostics

def coupler_matrix(params):
    """The 2x2 map _couple applies to a channel pair, read off the basis vectors."""
    one, zero = np.ones(1, dtype=complex), np.zeros(1, dtype=complex)
    columns = (_couple(params, one, zero), _couple(params, zero, one))
    return np.array([np.concatenate(column) for column in columns]).T


def test_coupler_matrix_is_unitary():
    u = coupler_matrix(SplitterParams(0.8, 0.6))
    np.testing.assert_array_equal(u, [[0.8, -0.6j], [-0.6j, 0.8]])
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12


def test_coupler_matrix_unitarity_over_alpha_sweep():
    for alpha in np.linspace(0.0, 1.0, 21):
        u = coupler_matrix(SplitterParams.from_alpha(float(alpha)))
        gram = u.conj().T @ u
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-14


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([0.3, 0.7])) == pytest.approx(0.7, abs=1e-6)


def test_spectral_radius_nilpotent():
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) <= 1e-3


def test_spectral_radius_scaled_unitary():
    for seed, scale in ((0, 0.25), (1, 0.99), (2, 1.7)):
        u = random_unitary(5, seed)
        phase = np.exp(0.3j)
        est = spectral_radius(scale * phase * u)
        assert est == pytest.approx(scale, abs=1e-6)


def test_spectral_radius_is_exact_on_a_jordan_block():
    # a power iteration creeps toward 0.5 here at a rate of 1/n
    assert spectral_radius(np.array([[0.5, 100.0], [0.0, 0.5]])) == pytest.approx(0.5, abs=1e-12)


def test_spectral_radius_deterministic():
    a = np.random.default_rng(9).standard_normal((4, 4))
    assert spectral_radius(a) == spectral_radius(a)


# ---------------------------------------------------------------- random unitaries

@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_random_unitary_is_unitary(seed):
    u = random_unitary(4, seed)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-10


def test_random_unitary_deterministic():
    np.testing.assert_array_equal(random_unitary(3, 42), random_unitary(3, 42))


def test_random_unitary_seed_pairs_differ():
    # sampled check: distinct seeds should essentially never collide
    for seed in range(100):
        a = random_unitary(3, seed)
        b = random_unitary(3, seed + 1000)
        assert np.max(np.abs(a - b)) > 1e-6


def test_random_unitary_dim_bounds():
    with pytest.raises(ValueError):
        random_unitary(0, 1)
    with pytest.raises(ValueError):
        random_unitary(DIM_CAP + 1, 1)


# ---------------------------------------------------------------- splitter and coupler

def test_splitter_rejects_unnormalized():
    with pytest.raises(ValueError):
        SplitterParams(0.9, 0.9)
    with pytest.raises(ValueError):
        SplitterParams(-0.1, 1.0)
    with pytest.raises(ValueError):
        SplitterParams(float("nan"), 1.0)


def test_splitter_from_beta_normalizes():
    p = SplitterParams.from_beta(0.1)
    assert p.alpha**2 + p.beta**2 == pytest.approx(1.0, abs=1e-15)
    q = SplitterParams.from_alpha(1.0)
    assert q.beta == 0.0


def test_couple_transparent():
    rng = np.random.default_rng(10)
    x, y = random_complex_vector(rng, 3), random_complex_vector(rng, 3)
    out1, out2 = _couple(SplitterParams.from_alpha(1.0), x, y)
    np.testing.assert_array_equal(out1, x)
    np.testing.assert_array_equal(out2, y)


def test_couple_full_reflection():
    rng = np.random.default_rng(11)
    x, y = random_complex_vector(rng, 3), random_complex_vector(rng, 3)
    out1, out2 = _couple(SplitterParams.from_alpha(0.0), x, y)
    np.testing.assert_allclose(out1, -1j * y, atol=1e-15)
    np.testing.assert_allclose(out2, -1j * x, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=1.0),
    xs=st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
                min_size=3, max_size=3),
    ys=st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
                min_size=3, max_size=3),
)
def test_couple_preserves_total_norm(alpha, xs, ys):
    params = SplitterParams.from_alpha(alpha)
    x = np.array(xs, dtype=complex)
    y = np.array(ys, dtype=complex)
    out1, out2 = _couple(params, x, y)
    before = norm_sq(x) + norm_sq(y)
    after = norm_sq(out1) + norm_sq(out2)
    assert abs(before - after) <= 1e-12 * max(1.0, before)


# ---------------------------------------------------------------- validation

def test_as_operator_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        as_operator(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_operator(np.full((2, 2), np.inf))
    with pytest.raises(ValueError):
        as_operator(np.ones((DIM_CAP + 1, DIM_CAP + 1)))


def test_as_state_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        as_state(np.ones((2, 2)))
    with pytest.raises(ValueError):
        as_state(np.array([np.nan, 0.0]))


# ---------------------------------------------------------------- norm_sq of one entry

def assert_norm_sq_is_the_exact_square(z: complex):
    """norm_sq of one entry, in any shape, is re^2 + im^2 within 2u plus the underflow floor,
    or inf where the rounded squares leave the float range."""
    got = norm_sq(z)
    for shaped in ([z], np.array([z]), np.array([[z]])):
        assert type(norm_sq(shaped)) is float and norm_sq(shaped) == got, (z, shaped)
    exact = Fraction(z.real) ** 2 + Fraction(z.imag) ** 2
    if got == math.inf:
        assert exact * (1 + U) ** 2 >= 2**1024 - 2**970, z  # past the largest double, rounded
    else:
        assert abs(Fraction(got) - exact) <= 2 * U * (1 + U) * exact + Fraction(1, 2**1074), z


# signed zeros, subnormals, the smallest normal, parts whose square leaves the
# float range (near 1.34e154) and the largest floats
EDGE_PARTS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 1.5e-154,
    1e154, 1.3407807929942596e154, -1.3407807929942597e154, 1e200, -1e308,
    1.7976931348623157e308,
)


def test_norm_sq_of_one_entry_is_the_exact_square_on_an_edge_grid():
    for re, im in itertools.product(EDGE_PARTS, repeat=2):
        assert_norm_sq_is_the_exact_square(complex(re, im))


@settings(max_examples=500, deadline=None)
@given(re=st.floats(allow_nan=False, allow_infinity=False),
       im=st.floats(allow_nan=False, allow_infinity=False))
def test_norm_sq_of_one_entry_is_the_exact_square_on_random_draws(re, im):
    assert_norm_sq_is_the_exact_square(complex(re, im))


@pytest.mark.parametrize("z", [1e200, complex(1e-10, -1e160), complex(1e308, 1e308)], ids=repr)
def test_norm_sq_of_one_entry_past_the_float_range_is_inf(z, monkeypatch):
    # the same inf on every CPU, where np.vdot's inf or NaN depends on the BLAS kernel
    calls = []
    vdot = np.vdot

    def spy(a, b):
        calls.append(a)
        return vdot(a, b)

    monkeypatch.setattr(np, "vdot", spy)
    assert norm_sq([z]) == math.inf
    norm_sq([1e150 + 1e150j])  # the square is finite
    assert calls == []


@pytest.mark.parametrize("v", [[1e278 - 1e278j, 1], [1e160 + 1e160j, 0]], ids=repr)
def test_norm_sq_of_several_entries_past_the_float_range_is_inf(v):
    # the sum of re*re + im*im, where np.vdot's inf or NaN depends on the BLAS kernel
    assert norm_sq(v) == math.inf
    assert norm_sq(np.array(v)[::-1]) == math.inf
