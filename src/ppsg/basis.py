"""Polynomial evaluation in binomial and monomial bases, basis changes, and
lattice-point disambiguation.

A phase polynomial is represented by a :class:`CoefficientVector` over a
:class:`~ppsg.degrees.DegreeSet`, either in the binomial basis (coordinates
of the multivariate binomial coefficients C(n, m)) or the monomial basis
(coordinates of n^m / m!).  The two are related by an upper-unitriangular
change-of-basis matrix; because the observable signal only determines
coefficients up to integer shifts in the binomial basis, mapping between
bases goes through the nearest-lattice-point recursion rather than a plain
matrix solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .degrees import DegreeSet, MultiIndex, as_index

BINOMIAL = "binomial"
MONOMIAL = "monomial"


@dataclass(frozen=True)
class CoefficientVector:
    """Real coefficients indexed by degree-set position in a declared basis."""

    values: np.ndarray
    basis: str
    degree_set: DegreeSet

    def __post_init__(self) -> None:
        if self.basis not in (BINOMIAL, MONOMIAL):
            raise ValueError(f"unknown basis {self.basis!r}")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.degree_set),):
            raise ValueError(
                f"expected {len(self.degree_set)} values, got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)

    def __getitem__(self, m: Sequence[int]) -> float:
        return float(self.values[self.degree_set.position(m)])

    def to_json(self) -> dict:
        """JSON form with fields in the order: basis, degrees, values."""
        return {
            "basis": self.basis,
            "degrees": self.degree_set.to_json(),
            "values": [float(v) for v in self.values],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoefficientVector":
        degree_set = DegreeSet(tuple(tuple(m) for m in data["degrees"]))
        return cls(np.asarray(data["values"], dtype=float), data["basis"], degree_set)


@dataclass(frozen=True)
class ChangeOfBasis:
    """Upper-unitriangular matrix mapping binomial to monomial coordinates."""

    matrix: np.ndarray
    degree_set: DegreeSet

    def __post_init__(self) -> None:
        n = len(self.degree_set)
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (n, n):
            raise ValueError(f"expected {n}x{n} matrix, got {matrix.shape}")
        object.__setattr__(self, "matrix", matrix)
        if not np.allclose(np.diag(matrix), 1.0):
            raise ValueError("matrix is not unitriangular (diagonal != 1)")
        if np.any(np.tril(matrix, k=-1) != 0.0):
            raise ValueError("matrix has nonzeros below the diagonal")


# -- Gridded evaluation -------------------------------------------------------
#
# Fields are combined from per-dimension axes by broadcasting.  The estimator
# cancels each term in exact turns from the basis function's integer
# numerator modulo 2^64 (:func:`integer_field`), whose axes are cached at any
# length and whose fields are formed on each call, and takes a sub-turn
# remainder's float factor block by block (:func:`_float_rows`).  Only
# synthesis reads the float fields.  A binomial one is cached whole up to
# this many samples of its compact form, which spans the touched axes only.
_FIELD_CACHE_LIMIT = 1 << 17


def _binomial_axis(start: int, stop: int, m: int) -> np.ndarray:
    """C(n, m) for n in [start, stop), float64."""
    out = np.ones(stop - start)
    for i in range(m):
        out *= np.arange(start, stop) - i
        out /= i + 1
    return out


def _monomial_axis(start: int, stop: int, m: int) -> np.ndarray:
    """n^m / m! for n in [start, stop), float64."""
    return np.arange(start, stop, dtype=float) ** m / math.factorial(m)


@lru_cache(maxsize=64)
def _pascal_axis(n_count: int, m: int) -> np.ndarray:
    """C(n, m) mod 2^64 for n in [n_count], as int64, read-only.

    m cumulative sums of ones give C(j + m, m) at j, so m in-place sums of
    the ones from sample m on build it in one array; uint64 sums wrap,
    exactly modulo 2^64.
    """
    out = np.zeros(n_count, np.uint64)
    out[m:] = 1
    for _ in range(m):
        np.cumsum(out, out=out)
    out = out.view(np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _power_axis(n_count: int, m: int) -> np.ndarray:
    """n^m mod 2^64 for n in [n_count], as int64, read-only; uint64
    products wrap, exactly modulo 2^64."""
    out = np.arange(n_count, dtype=np.uint64) ** np.uint64(m)
    out = out.view(np.int64)
    out.setflags(write=False)
    return out


def tensor_field(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Outer product of per-dimension axes, multiplied left to right; int64
    axes multiply with wrapping, exactly modulo 2^64.

    A single axis is returned as is, so treat the result as read-only.
    """
    out = axes[0]
    for ax in axes[1:]:
        out = np.multiply.outer(out, ax)
    return out


def _float_rows(
    m: MultiIndex, N: MultiIndex, basis: str = BINOMIAL, a: int = 0, b: int | None = None
) -> np.ndarray:
    """The basis function at m in float64 over the rows [a, b) of the first
    window axis (all by default), of length 1 where m_d = 0; each value is
    formed from its own index alone, so these are the whole field's rows."""
    axis = _binomial_axis if basis == BINOMIAL else _monomial_axis
    spans = [(a, N[0] if b is None else b)] + [(0, Nd) for Nd in N[1:]]
    out = tensor_field([axis(lo, hi, md) if md else np.ones(1) for (lo, hi), md in zip(spans, m)])
    out.setflags(write=False)
    return out


_binomial_field_cached = lru_cache(maxsize=256)(_float_rows)


def binomial_field(m: Sequence[int], N: Sequence[int]) -> np.ndarray:
    """C(n, m) sampled over the window [N]; a read-only broadcast of shape N."""
    m, N = as_index(m), as_index(N)
    small = math.prod(Nd for Nd, md in zip(N, m) if md) <= _FIELD_CACHE_LIMIT
    return np.broadcast_to((_binomial_field_cached if small else _float_rows)(m, N), N)


def monomial_field(m: Sequence[int], N: Sequence[int]) -> np.ndarray:
    """n^m / m! sampled over the window [N]; a read-only broadcast of shape N."""
    m, N = as_index(m), as_index(N)
    return np.broadcast_to(_float_rows(m, N, MONOMIAL), N)


def integer_field(m: Sequence[int], N: Sequence[int], basis: str) -> tuple[np.ndarray, int]:
    """The basis function at m over the window [N] as an integer field over
    a divisor: C(n, m) over 1 for BINOMIAL, n^m over m! = prod m_d! for
    MONOMIAL.  The field is taken modulo 2^64, as int64 (a read-only
    broadcast of shape N), which is all that exact turns of an integer
    multiple of it need."""
    m, N = as_index(m), as_index(N)
    axis = _pascal_axis if basis == BINOMIAL else _power_axis
    field = np.broadcast_to(tensor_field([axis(Nd if md else 1, md) for Nd, md in zip(N, m)]), N)
    return field, 1 if basis == BINOMIAL else math.prod(math.factorial(md) for md in m)


def phase_field(coeffs: CoefficientVector, N: Sequence[int]) -> np.ndarray:
    """Evaluate the phase polynomial over the full window [N]."""
    return phase_fields(coeffs.values[None], coeffs.degree_set, N, coeffs.basis)[0]


def phase_fields(
    values: np.ndarray, degree_set: DegreeSet, N: Sequence[int], basis: str = BINOMIAL
) -> np.ndarray:
    """Phase polynomials of a batch of coefficient rows, shape (B, *N).

    ``values`` has shape (B, |M|).  Terms are added in degree-set order, and
    a degree whose coefficient is zero in every row is skipped.
    """
    N = as_index(N)
    sample = binomial_field if basis == BINOMIAL else monomial_field
    out = np.zeros((len(values),) + N)
    for c, m in zip(values.T, degree_set):
        if c.any():
            out += c.reshape((-1,) + (1,) * len(N)) * sample(m, N)
    return out


# -- Change of basis -----------------------------------------------------------


@lru_cache(maxsize=None)
def _falling_factorial_coords(m: int) -> tuple[Fraction, ...]:
    """Coordinates t_{l,m} of C(n, m) relative to the basis {n^l / l!}.

    Expands n(n-1)...(n-m+1)/m! exactly: multiply out the falling factorial
    with Fraction coefficients, then rescale the n^l coefficient by l!/m!.
    """
    poly = [Fraction(1)]  # coefficients of n^l, ascending
    for i in range(m):
        shifted = [Fraction(0)] + poly
        poly = [s - i * p for s, p in zip(shifted, poly + [Fraction(0)])]
    mfact = math.factorial(m)
    return tuple(
        c * math.factorial(ell) / mfact for ell, c in enumerate(poly)
    )


def binomial_to_monomial_matrix(M: DegreeSet) -> ChangeOfBasis:
    """Matrix T with a = T b mapping binomial to monomial coordinates.

    Entry (l, m) is the coordinate of C(n, m) on n^l / l!, a product of
    per-dimension falling-factorial expansions.  Exact rational arithmetic
    throughout; conversion to float happens once at the end.  Requires a
    downward-closed degree set so every needed row degree is present.
    """
    if not M.is_downward_closed():
        raise ValueError("degree set is not downward closed")
    size = len(M)
    matrix = np.zeros((size, size))
    for j, m in enumerate(M.degrees):
        coords = [_falling_factorial_coords(md) for md in m]
        for i, ell in enumerate(M.degrees):
            if all(ld <= md for ld, md in zip(ell, m)):
                entry = Fraction(1)
                for d, (ld, md) in enumerate(zip(ell, m)):
                    entry *= coords[d][ld]
                matrix[i, j] = float(entry)
    return ChangeOfBasis(matrix, M)


# -- Lattice disambiguation -----------------------------------------------------


def round_half_up(x: np.ndarray | float) -> np.ndarray | float:
    """Round to nearest integer with ties at .5 rounding up: floor(x + 1/2)."""
    return np.floor(np.asarray(x, dtype=float) + 0.5)


def wrap_to_cell(v: np.ndarray | float) -> np.ndarray:
    """Componentwise v - round(v), landing in [-1/2, 1/2).

    The addition inside floor(v + 1/2) can round up across the tie when v is
    within half an ulp of the cell edge, leaving a result just below -1/2;
    that escape is folded back so the half-open guarantee is unconditional.
    """
    v = np.asarray(v, dtype=float)
    out = v - round_half_up(v)
    return np.where(out < -0.5, out + 1.0, out)


def compute_lattice_point(a: np.ndarray, T: ChangeOfBasis) -> np.ndarray:
    """Integer z with a - T z in the cell [-1/2, 1/2)^|M|.

    Back-substitution in descending total order: because T is upper
    unitriangular, each entry is fixed by rounding once all later entries
    are known.
    """
    a = np.asarray(a, dtype=float)
    mat = T.matrix
    size = len(a)
    if mat.shape != (size, size):
        raise ValueError("coordinate/matrix size mismatch")
    z = np.zeros(size)
    for i in range(size - 1, -1, -1):
        z[i] = round_half_up(a[i] - mat[i, i + 1 :] @ z[i + 1 :])
    return z


def compute_new_coordinate(b: CoefficientVector, T: ChangeOfBasis) -> CoefficientVector:
    """Monomial coordinates in the cell, reconstruction-equivalent to b.

    Computes a = T(b - z) with z the lattice point of T b, so that
    a - T b lies in T Z^|M| and a itself lies in [-1/2, 1/2)^|M|.
    """
    if b.basis != BINOMIAL:
        raise ValueError(f"expected binomial basis, got {b.basis!r}")
    z = compute_lattice_point(T.matrix @ b.values, T)
    a = T.matrix @ (b.values - z)
    return CoefficientVector(a, MONOMIAL, b.degree_set)
