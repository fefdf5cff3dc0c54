"""Fisher information, CRB, and scalar performance measures for
phase-polynomial estimation.

The Fisher matrix for binomial-basis coefficients is a scaled Gram matrix of
the binomial fields over the window, summed exactly axis by axis, and the
CRB is its inverse, taken exactly and rounded once.  Its
orthogonal-polynomial decomposition and the ``tr(KJ)`` efficiency measure
are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .degrees import DegreeSet, as_index, diff_window
from .signal import RealField, _is_snr


@dataclass(frozen=True)
class FisherMatrix:
    """Fisher information for binomial-basis coefficients at a linear SNR."""

    matrix: np.ndarray
    degree_set: DegreeSet
    snr: float

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        n = len(self.degree_set)
        if matrix.shape != (n, n):
            raise ValueError(f"expected {n}x{n} matrix, got {matrix.shape}")
        object.__setattr__(self, "matrix", matrix)


def _gram_axis(n_count: int, a: int, b: int) -> int:
    """sum_{n < n_count} C(n, a) C(n, b), exactly: the product is the sum of
    C(j, a) C(a, j - b) C(n, j) over j in [max(a, b), a + b], and C(n, j)
    sums to C(n_count, j + 1) (the hockey-stick identity)."""
    js = range(max(a, b), a + b + 1)
    return sum(math.comb(j, a) * math.comb(a, j - b) * math.comb(n_count, j + 1) for j in js)


def _gram(M: DegreeSet, N: Sequence[int], snr: float) -> list[list[int]]:
    """sum_n C(n, m) C(n, m') over the window [N] for every pair of degrees
    of M, each a product of :func:`_gram_axis` sums, exactly, for a linear
    SNR that is, with its inverse, finite and positive; ``ValueError`` if
    the Fisher matrix, 8 pi^2 snr times it, overflows float64."""
    N = as_index(N)
    diff_window(N, M.max_degree)
    if not _is_snr(snr):
        raise ValueError(f"snr {snr} is not a finite, positive SNR with a finite inverse")
    largest = max(math.prod(map(_gram_axis, N, m, m)) for m in M.degrees)  # bounds every entry
    if largest > sys.float_info.max or 8 * np.pi**2 * snr * float(largest) == math.inf:
        raise ValueError(f"degrees up to {M.max_degree} on window {N} overflow the Fisher matrix")
    return [[math.prod(map(_gram_axis, N, m, k)) for k in M.degrees] for m in M.degrees]


def fisher_matrix(M: DegreeSet, N: Sequence[int], snr: float) -> FisherMatrix:
    """Entries 8 pi^2 snr sum_n C(n, m) C(n, m'), each :func:`_gram` sum
    rounded to float once."""
    gram = [[float(g) for g in row] for row in _gram(M, N, snr)]
    return FisherMatrix(8 * np.pi**2 * snr * np.array(gram), M, float(snr))


def crb(M: DegreeSet, N: Sequence[int], snr: float) -> np.ndarray:
    """The inverse Fisher matrix, each entry correctly rounded: the
    :func:`_gram` is inverted by Gauss-Jordan elimination in ``Fraction``
    arithmetic (it is positive definite, so no pivot is zero), and divided
    by 8 pi^2 snr as :func:`fisher_matrix` forms that factor in float64;
    ``ValueError`` if an entry overflows float64."""
    N = as_index(N)
    gram = _gram(M, N, snr)
    size = len(gram)
    rows = [[Fraction(g) for g in row] + [Fraction(int(i == j)) for j in range(size)]
            for i, row in enumerate(gram)]
    for k, pivot in enumerate(rows):
        pivot[:] = [v / pivot[k] for v in pivot]
        for i, row in enumerate(rows):
            if i != k and row[k]:
                rows[i] = [v - row[k] * p for v, p in zip(row, pivot)]
    scale = Fraction(8 * np.pi**2 * snr)
    try:
        return np.array([[float(v / scale) for v in row[size:]] for row in rows])
    except OverflowError:
        raise ValueError(f"degrees up to {M.max_degree} on window {N} overflow the CRB") from None


def reconstruction_bound(M: DegreeSet, snr: float) -> float:
    """High-SNR floor of the signal reconstruction MSE: |M| / (2 snr).

    Independent of the window size.
    """
    if not _is_snr(snr):
        raise ValueError(f"snr must be positive, finite and have a finite inverse, got {snr}")
    return len(M) / (2.0 * snr)


def outlier_predicate(arg_increments: RealField, b_k: float) -> bool:
    """Phase-wrapping test for one degree.

    ``arg_increments`` is the already-differenced per-sample argument noise
    field for that degree; the event is b_k plus any increment leaving the
    half-open cell [-1/2, 1/2).
    """
    v = b_k + arg_increments.data
    return bool(np.any((v < -0.5) | (v >= 0.5)))
