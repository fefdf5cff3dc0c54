"""Fisher information, CRB, and scalar performance measures for
phase-polynomial estimation.

The Fisher matrix for binomial-basis coefficients is a scaled Gram matrix of
the binomial fields over the window, summed exactly axis by axis.  The CRB
and the projection of a set not downward closed are solved from it exactly
and rounded once.  Its orthogonal-polynomial decomposition and the
``tr(KJ)`` efficiency measure are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .degrees import DegreeSet, as_index, diff_window
from .signal import RealField, _is_snr


def _gram_axis(n_count: int, a: int, b: int) -> int:
    """sum_{n < n_count} C(n, a) C(n, b), exactly: the product is the sum of
    C(j, a) C(a, j - b) C(n, j) over j in [max(a, b), a + b], and C(n, j)
    sums to C(n_count, j + 1) (the hockey-stick identity)."""
    js = range(max(a, b), a + b + 1)
    return sum(math.comb(j, a) * math.comb(a, j - b) * math.comb(n_count, j + 1) for j in js)


def _check(M: DegreeSet, N: tuple[int, ...], snr: float) -> None:
    """``ValueError`` unless M fits the window [N], the linear SNR is, with
    its inverse, finite and positive, and the Fisher matrix, 8 pi^2 snr
    times the :func:`_gram`, stays within float64."""
    diff_window(N, M.max_degree)
    if not _is_snr(snr):
        raise ValueError(f"snr {snr} is not a finite, positive SNR with a finite inverse")
    largest = max(math.prod(map(_gram_axis, N, m, m)) for m in M.degrees)  # bounds every entry
    if largest > sys.float_info.max or 8 * np.pi**2 * snr * float(largest) == math.inf:
        raise ValueError(f"degrees up to {M.max_degree} on window {N} overflow the Fisher matrix")


def _gram(M: DegreeSet, N: tuple[int, ...]) -> list[list[int]]:
    """sum_n C(n, m) C(n, m') over the window [N] for every pair of degrees
    of M, each a product of :func:`_gram_axis` sums, exactly."""
    return [[math.prod(map(_gram_axis, N, m, k)) for k in M.degrees] for m in M.degrees]


def fisher_matrix(M: DegreeSet, N: Sequence[int], snr: float) -> np.ndarray:
    """The Fisher information, an (|M|, |M|) array of 8 pi^2 snr sum_n
    C(n, m) C(n, m'), each :func:`_gram` sum rounded once, after the :func:`_check`."""
    N = as_index(N)
    _check(M, N, snr)
    gram = [[float(g) for g in row] for row in _gram(M, N)]
    return 8 * np.pi**2 * snr * np.array(gram)


def crb(M: DegreeSet, N: Sequence[int], snr: float) -> np.ndarray:
    """The inverse Fisher matrix, each entry correctly rounded: the
    :func:`_gram` is inverted exactly (:func:`_exact_inverse`) and divided
    by 8 pi^2 snr as :func:`fisher_matrix` forms that factor in float64;
    ``ValueError`` if the :func:`_check` fails or an entry overflows
    float64."""
    return crb_grid(M, N, [snr])[0]


def crb_grid(M: DegreeSet, N: Sequence[int], snrs: Sequence[float]) -> list[np.ndarray]:
    """:func:`crb` at each SNR of ``snrs``, bit for bit, from one exact
    inversion: the inverse does not depend on the SNR.  Each point is
    checked and scaled in turn, so the first point that fails raises."""
    N = as_index(N)
    inverse = None
    out = []
    for snr in snrs:
        _check(M, N, snr)
        if inverse is None:
            inverse = _exact_inverse(_gram(M, N))
        scale = Fraction(8 * np.pi**2 * snr)
        try:
            out.append(np.array([[float(v / scale) for v in row] for row in inverse]))
        except OverflowError:
            raise ValueError(
                f"degrees up to {M.max_degree} on window {N} overflow the CRB"
            ) from None
    return out


@lru_cache(maxsize=64)
def _projection(M: DegreeSet, closure: DegreeSet, N: tuple[int, ...]) -> tuple:
    """The rows of M in its closure, the rest R, and P = G_MM^-1 G_MR of the
    closure's :func:`_gram`, solved exactly after the :func:`_check` and
    rounded once, read-only; the Fisher matrix's SNR scale cancels."""
    _check(closure, N, 1.0)
    gram = _gram(closure, N)
    rows = tuple(closure.position(m) for m in M.degrees)
    rest = tuple(i for i, m in enumerate(closure.degrees) if m not in M)
    P = np.array(_exact_inverse([[gram[i][j] for j in rows] for i in rows],
                                [[gram[i][j] for j in rest] for i in rows]), float)
    P.setflags(write=False)
    return rows, rest, P


def _exact_inverse(gram: list[list[int]], right: list | None = None) -> list[list[Fraction]]:
    """gram^-1 right (the inverse by default) for a positive definite integer
    matrix, by Gauss-Jordan elimination in ``Fraction``s; no pivot is zero."""
    size = len(gram)
    right = right or [[int(i == j) for j in range(size)] for i in range(size)]
    rows = [[Fraction(g) for g in row + extra] for row, extra in zip(gram, right)]
    for k, pivot in enumerate(rows):
        pivot[:] = [v / pivot[k] for v in pivot]
        for i, row in enumerate(rows):
            if i != k and row[k]:
                rows[i] = [v - row[k] * p for v, p in zip(row, pivot)]
    return [row[size:] for row in rows]


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
