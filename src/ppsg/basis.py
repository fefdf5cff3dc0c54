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
# Fields are combined from per-dimension axes by broadcasting.  Every phase
# the library synthesizes, scores or cancels is a sum of exact term turns
# (:func:`apply_term`); float fields serve :func:`phase_field`, tests and a
# sub-turn remainder.  A turn is 2^-64 cycle: an int64 phase read as signed
# lies in [-pi, pi).
_TURN = 2.0**-64
# Every pass over a window of turns works on blocks of at most this many
# samples per signal, cut along the first window axis; a block holds at
# least one slice of that axis, however long.
_BLOCK_SAMPLES = 1 << 15


def _block_rows(N: tuple[int, ...], piece: int) -> int:
    """Slices of the first axis of window N per block.  In 1-D it is a
    multiple of ``piece``, so the estimator's blocks cut a weighted sum only
    where :func:`~ppsg.estimator._piece_sums` cuts it."""
    if len(N) == 1:
        return max(1, _BLOCK_SAMPLES // piece) * piece
    return max(1, _BLOCK_SAMPLES // math.prod(N[1:]))


def _blocks(count: int, rows: int) -> list[tuple[int, int]]:
    """The spans [a, b) of at most ``rows`` that tile range(count), in order."""
    return [(a, min(a + rows, count)) for a in range(0, count, rows)]


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


# The integer axes are cached at the length of a block's rows, or of a
# whole axis after the first: :func:`_shift_scalars` shifts them to any rows.
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


def _shift_scalars(a: int, m: int, basis: str) -> list[int]:
    """The scalars s_i, i = 0..m, that shift the cached axes F_i(j) of a
    block's length to the rows from a: F(a + j) = sum_i s_i F_i(j).  For
    BINOMIAL, F_i(j) = C(j, i) and s_i = C(a, m - i) (Vandermonde's
    identity); for MONOMIAL, F_i(j) = j^i and s_i = C(m, i) a^(m - i)
    (the binomial theorem).  s_m is 1, and F_0 is all ones."""
    if basis == BINOMIAL:
        return [math.comb(a, m - i) for i in range(m + 1)]
    return [math.comb(m, i) * a ** (m - i) for i in range(m + 1)]


def tensor_field(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Outer product of per-dimension axes, multiplied left to right; int64
    axes multiply with wrapping, exactly modulo 2^64.

    A single axis is returned as is, so treat the result as read-only.
    """
    out = axes[0]
    for ax in axes[1:]:
        out = np.multiply.outer(out, ax)
    return out


def _spans(m: MultiIndex, N: MultiIndex, a: int, b: int | None) -> list[tuple[int, int]]:
    """Per axis, the samples [lo, hi) that a term takes: the rows [a, b) of
    the first (all by default), all of the others, and [0, 1) where m_d = 0,
    along which the basis function at m is constant."""
    rows = [(a, N[0] if b is None else b)] + [(0, Nd) for Nd in N[1:]]
    return [span if md else (0, 1) for span, md in zip(rows, m)]


def _float_rows(
    m: MultiIndex, N: MultiIndex, basis: str = BINOMIAL, a: int = 0, b: int | None = None
) -> np.ndarray:
    """The basis function at m in float64 over the :func:`_spans` of the
    rows [a, b); each value is formed from its own index alone, so these are
    the whole field's rows."""
    axis = _binomial_axis if basis == BINOMIAL else _monomial_axis
    out = tensor_field([axis(lo, hi, md) for (lo, hi), md in zip(_spans(m, N, a, b), m)])
    out.setflags(write=False)
    return out


# Never called: benchmarks/run.py reads its cache_info() in traced runs.
_binomial_field_cached = lru_cache(maxsize=256)(_float_rows)


def binomial_field(m: Sequence[int], N: Sequence[int]) -> np.ndarray:
    """C(n, m) over the window [N] in float64; a read-only broadcast of shape N."""
    m, N = as_index(m), as_index(N)
    return np.broadcast_to(_float_rows(m, N), N)


def _fold(turns: np.ndarray) -> np.ndarray:
    """Float turns in [-2^63, 2^63] folded in place into int64 range, for a
    conversion that truncates: +2^63, a phase of +1/2 cycle, is -2^63."""
    turns[turns == 2.0**63] = -(2.0**63)
    return turns


def _int64(value: int) -> np.ndarray:
    """A Python integer modulo 2^64, as a 0-d int64 array."""
    return np.array(value % 2**64, np.uint64).view(np.int64)


def _split(acc: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The fraction c = acc - rint(acc) of a cycle (+1/2 read as -1/2),
    split exactly into k turns, an int64, and a remainder r = c - k * 2^-64
    below one turn, in cycles, or None when every r is 0.

    A float64 c with |c| >= 2^-12 is a multiple of 2^-64, so r is nonzero
    only for smaller c.
    """
    x = _fold((acc - np.rint(acc)) / _TURN)
    k = x.astype(np.int64)
    r = x - k
    return k, (r * _TURN if r.any() else None)


def _turns(
    split: tuple[np.ndarray, np.ndarray | None], exact: np.ndarray, approx: np.ndarray | None
) -> np.ndarray:
    """The phase ``acc * F`` in cycles as int64 turns, broadcast, from the
    :func:`_split` of ``acc``, for an integer factor F such as a lag's
    tau^m; :func:`apply_term` forms a term's turns the same way, piece by
    piece.  ``exact`` is F modulo 2^64 as int64; ``approx`` is F in
    float64, needed only when the split has a remainder.

    k * F wraps, exactly modulo 2^64, so the turns are exact unless the
    remainder r is nonzero; then the turns of r * F, rounded in float64 to
    about F * 2^-52 turns, are added.
    """
    k, r = split
    out = k * exact
    if r is not None:
        out += _remainder_turns(r, approx)
    return out


def _remainder_turns(r: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """The turns of ``r * approx`` for a :func:`_split` remainder ``r``,
    rounded in float64."""
    t = r * approx
    t -= np.rint(t)
    return _fold(t / _TURN).astype(np.int64)


def apply_term(
    out: np.ndarray, c: np.ndarray, m: MultiIndex, basis: str, step: np.ufunc
) -> None:
    """``step(out, t, out=out)`` in place for the turns t of the term
    ``c * F`` of the basis function F at m, coefficients ``c`` (B,), over a
    batch of int64 turns ``out`` (B, *N): ``np.add`` synthesizes, and
    ``np.subtract`` cancels.  F is C(n, m), or n^m over m! for MONOMIAL.

    ``c`` over the divisor is :func:`_split` once into whole turns k and a
    remainder.  Over the rows [a, b) of a block of :func:`_block_rows`, F's
    integer part modulo 2^64 is sum_i s_i F_i, from block-length axes
    (:func:`_shift_scalars`), so the block takes one step per nonzero
    scalar: the turns k * s_i times F_i, formed in one scratch buffer
    reused across blocks.  Each is exact modulo 2^64, as their sum is
    (:func:`_turns`); a remainder takes one more step, from F's float form.
    Along an axis where m_d = 0, F is constant: it has length 1 there, as
    F_0 has along the first axis, and the whole window is one block when
    m_0 = 0.
    """
    N = out.shape[1:]
    divisor = 1 if basis == BINOMIAL else math.prod(map(math.factorial, m))
    axis = _pascal_axis if basis == BINOMIAL else _power_axis
    k, r = _split((c / divisor).reshape((-1,) + (1,) * len(N)))
    rows = _block_rows(N, np.getbufsize())
    rest = [axis(Nd, md) if md else axis(1, 0) for Nd, md in zip(N[1:], m[1:])]
    count = min(rows, N[0])
    factors = [tensor_field([axis(count if i else 1, i)] + rest) for i in range(m[0] + 1)]
    scratch = np.empty((len(out),) + factors[-1].shape, np.int64)
    # One whole-window step at m_0 = 0: walking the blocks read 234-254 against
    # 184-188 us per 512x512 cancellation (one pinned Xeon CPU, medians of 8).
    for a, b in _blocks(N[0], rows) if m[0] else [(0, N[0])]:
        block = out[:, a:b]
        for scalar, factor in zip(_shift_scalars(a, m[0], basis), factors):
            if scalar % 2**64:
                factor = factor[: b - a]
                t = np.multiply(k * _int64(scalar), factor, out=scratch[:, : len(factor)])
                step(block, t, out=block)
        if r is not None:
            approx = divisor * _float_rows(m, N, basis, a, b)
            step(block, _remainder_turns(r, approx), out=block)


def phase_turns(
    values: np.ndarray, degree_set: DegreeSet, N: Sequence[int], basis: str = BINOMIAL
) -> np.ndarray:
    """Phase polynomials of coefficient rows ``values`` (B, |M|) in int64
    turns, shape (B, *N): each degree's term added by :func:`apply_term`,
    as the estimator cancels it, so exact however large C(n, m) grows; a
    non-finite coefficient raises ``ValueError``."""
    N = as_index(N)
    out = np.zeros((len(values),) + N, np.int64)
    for c, m in zip(np.asarray(values, dtype=float).T, degree_set):
        if not np.isfinite(c).all():
            raise ValueError(f"coefficient of degree {m} is not finite: {c[~np.isfinite(c)][0]}")
        if c.any():
            apply_term(out, c, m, basis, np.add)
    return out


def phase_field(coeffs: CoefficientVector, N: Sequence[int]) -> np.ndarray:
    """The phase polynomial over [N] in float64 cycles, each term rounded:
    unlike :func:`phase_turns`, it loses the phase where terms near 2^52."""
    N = as_index(N)
    out = np.zeros(N)
    for c, m in zip(coeffs.values, coeffs.degree_set):
        if c:
            out += c * _float_rows(m, N, coeffs.basis)
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
