"""Dense complex linear algebra for small two-port coupler networks.

Input arrays are read as numpy ``complex128`` in C order and never mutated.
:func:`as_operator` and :func:`as_state` return C-ordered complex input itself;
every other function returns fresh values. Dimensions are capped at
``DIM_CAP``; the interesting physics lives at very small d.

:func:`invert` needs numpy only. At d=1 it skips array routines, whose
per-call cost dominates there, and takes 1/z in Python floats. For the
same reason the finite check of a 1x1 operator or a length-1 state and
:func:`norm_sq` of a single entry run on Python scalars. 1/z is within 7u
of the exact reciprocal and a single entry's |z|^2, re*re + im*im, within
2u of the exact square, each plus what a subnormal result loses (u is the
unit roundoff, 2^-53). Past the float range :func:`norm_sq` of any length
sums those squares, so it reads inf at every d where np.vdot may give NaN.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

DIM_CAP = 64

# a 1 x 1 matrix below this magnitude is treated as an exact zero
PIVOT_FLOOR = 1e-300
# matrices whose 1-norm condition number exceeds this are rejected as singular
CONDITION_CAP = 1e12


class SingularMatrixError(Exception):
    """Raised when a matrix cannot be inverted reliably."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


def as_operator(a, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite square complex matrix, checking dimensions."""
    arr = np.asarray(a, dtype=complex, order="C")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {arr.shape}")
    return _checked(arr, "operator", dim)


def as_state(v, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite complex amplitude vector, checking dimensions."""
    arr = np.asarray(v, dtype=complex, order="C")
    if arr.ndim != 1:
        raise ValueError(f"state must be a 1-d vector, got shape {arr.shape}")
    return _checked(arr, "state", dim)


def _checked(arr: np.ndarray, kind: str, dim: int | None) -> np.ndarray:
    """The size and entry checks operators and states share."""
    n = arr.shape[0]
    if not 1 <= n <= DIM_CAP:
        raise ValueError(f"{kind} dimension must be in [1, {DIM_CAP}], got {n}")
    if dim is not None and n != dim:
        raise ValueError(f"{kind} dimension mismatch: {n} != {dim}")
    _require_finite(cmath.isfinite(arr.item()) if arr.size == 1 else np.isfinite(arr).all(), kind)
    return arr


def _require_finite(finite: bool, kind: str) -> None:
    if not finite:
        raise ValueError(f"{kind} entries must be finite")


def norm_sq(v) -> float:
    """Squared Euclidean norm sum_i |v_i|^2."""
    arr = np.asarray(v, dtype=complex, order="C")
    if arr.size == 1:
        return _abs_sq(arr.item())
    total = float(np.vdot(arr, arr).real)
    # past the float range vdot's inf or NaN depends on the BLAS kernel
    return total if math.isfinite(total) else sum(map(_abs_sq, arr.tolist()))


def _abs_sq(z: complex) -> float:
    """|z|^2 as re*re + im*im: within 2u of the exact square, inf past the float range."""
    return z.real * z.real + z.imag * z.imag


def _max_abs(v) -> float:
    """Max-norm max_i |v_i|."""
    return float(np.abs(v).max())


def _max_relative_difference(reference, other) -> float:
    """max|reference - other| / max|reference|; the absolute gap when reference is zero."""
    diff, scale = _max_abs(reference - other), _max_abs(reference)
    return diff / scale if scale > 0.0 else diff


def invert(a) -> tuple[np.ndarray, float]:
    """Invert a square matrix; returns ``(inverse, condition)``.

    ``condition`` is the exact 1-norm condition number ||A||_1 ||A^-1||_1.
    Raises :class:`SingularMatrixError` on a zero pivot (at d=1: below
    ``PIVOT_FLOOR``), condition ``inf``, or a condition above ``CONDITION_CAP``.
    d=1 is within 7u of the exact 1/z, plus the underflow floor where 1/z is
    subnormal. d >= 2 is returned in Fortran order, so ``inverse @ v`` takes
    the gemv kernel the golden files used.
    """
    a = as_operator(a)
    if a.shape[0] == 1:
        inverse, condition = _invert_scalar(a.item())
        return np.array([[inverse]]), condition
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is singular (zero pivot)", condition=math.inf) from None
    condition = float(np.abs(a).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max())
    if not condition <= CONDITION_CAP:  # also true for a NaN condition
        message = f"matrix is numerically singular (1-norm condition {condition:.3e})"
        raise SingularMatrixError(message, condition=condition)
    return np.asfortranarray(inverse), condition


def _invert_scalar(z: complex) -> tuple[complex, float]:
    """:func:`invert` of the 1 x 1 matrix [z]: (1/z, 1.0), 1/z divided by the larger part."""
    ar, ai = z.real, z.imag
    _require_finite(math.isfinite(ar) and math.isfinite(ai), "operator")
    if math.hypot(ar, ai) < PIVOT_FLOOR:
        raise SingularMatrixError("matrix is singular (zero pivot)", condition=math.inf)
    swap = abs(ai) > abs(ar)  # divide by the larger part, as ztrti2 does
    ratio = ar / ai if swap else ai / ar
    # Halving keeps large * (1 + ratio**2) finite near the largest double. It is
    # exact above PIVOT_FLOOR / sqrt(2), so den has ztrti2's 1 / (large * ...) bits
    # wherever that product is finite.
    den = 0.5 / (0.5 * (ai if swap else ar) * (1.0 + ratio * ratio))
    return (complex(ratio * den, -den) if swap else complex(den, -ratio * den)), 1.0


def spectral_radius(a) -> float:
    """Loop radius max|eig(A)|, exact: taken from all eigenvalues of A.

    This is what decides whether summing loop traversals converges (radius
    below one). A power iteration only approaches it, slowly when the top
    eigenvalues are close in modulus or A is not diagonalizable.
    """
    return float(np.abs(np.linalg.eigvals(as_operator(a))).max())


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary from QR of a seeded complex Gaussian matrix.

    The diagonal of R is phase-normalized so the distribution is genuinely
    Haar rather than an artifact of the QR sign convention.
    """
    if not 1 <= dim <= DIM_CAP:
        raise ValueError(f"dim must be in [1, {DIM_CAP}], got {dim}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


@dataclass(frozen=True)
class SplitterParams:
    """Coupler amplitude pair (alpha, beta) with alpha^2 + beta^2 = 1.

    alpha is the straight-through amplitude, beta the cross amplitude; the
    cross leg always carries a -i phase so the two-port map stays unitary.
    The direct constructor rejects non-normalized pairs; use
    :meth:`from_alpha` / :meth:`from_beta` to derive the missing member.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0) or not (0.0 <= self.beta <= 1.0):
            raise ValueError("alpha and beta must lie in [0, 1]")
        if abs(self.alpha * self.alpha + self.beta * self.beta - 1.0) > 1e-12:
            raise ValueError("alpha^2 + beta^2 must equal 1 within 1e-12")

    @classmethod
    def from_alpha(cls, alpha: float) -> "SplitterParams":
        alpha = float(alpha)
        return cls(alpha=alpha, beta=math.sqrt(max(0.0, 1.0 - alpha * alpha)))

    @classmethod
    def from_beta(cls, beta: float) -> "SplitterParams":
        beta = float(beta)
        return cls(alpha=math.sqrt(max(0.0, 1.0 - beta * beta)), beta=beta)


def _couple(params: SplitterParams, x, y):
    """Apply the two-port coupler: (alpha x - i beta y, alpha y - i beta x).

    The same map serves both couplers of a network, only the channel pair
    fed into it changes. It runs on arrays or Python complex alike and
    checks nothing; its callers check the states where they enter.
    """
    a, b = params.alpha, params.beta
    return a * x - 1j * b * y, a * y - 1j * b * x
