"""Fisher information, CRB, and scalar performance measures for
phase-polynomial estimation.

The Fisher matrix for binomial-basis coefficients is a scaled Gram matrix of
the binomial fields over the window, summed exactly axis by axis, and the
CRB is its inverse.  Its orthogonal-polynomial decomposition and the
``tr(KJ)`` efficiency measure are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .degrees import DegreeSet, as_index, diff_window
from .signal import RealField


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


def fisher_matrix(M: DegreeSet, N: Sequence[int], snr: float) -> FisherMatrix:
    """Entries 8 pi^2 snr sum_n C(n, m) C(n, m'), for a linear SNR that is,
    with its inverse, finite and positive.  Each sum over the window is a
    product of :func:`_gram_axis` sums, rounded to float once."""
    N = as_index(N)
    diff_window(N, M.max_degree)
    if not (0.0 < snr < math.inf and 1.0 / snr < math.inf):  # NaN fails too
        raise ValueError(f"snr {snr} is not a finite, positive SNR with a finite inverse")
    gram = [[float(math.prod(map(_gram_axis, N, m, k))) for k in M.degrees] for m in M.degrees]
    return FisherMatrix(8 * np.pi**2 * snr * np.array(gram), M, float(snr))


def crb(M: DegreeSet, N: Sequence[int], snr: float) -> np.ndarray:
    """Inverse Fisher matrix via an SPD solve."""
    from scipy.linalg import cho_factor, cho_solve

    J = fisher_matrix(M, N, snr)
    try:
        return cho_solve(cho_factor(J.matrix), np.eye(len(M)))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise ValueError("Fisher matrix is singular; check the window size") from exc


def reconstruction_bound(M: DegreeSet, snr: float) -> float:
    """High-SNR floor of the signal reconstruction MSE: |M| / (2 snr).

    Independent of the window size.
    """
    if not snr > 0:  # NaN fails too
        raise ValueError(f"snr must be positive, got {snr}")
    return len(M) / (2.0 * snr)


def outlier_predicate(arg_increments: RealField, b_k: float) -> bool:
    """Phase-wrapping test for one degree.

    ``arg_increments`` is the already-differenced per-sample argument noise
    field for that degree; the event is b_k plus any increment leaving the
    half-open cell [-1/2, 1/2).
    """
    v = b_k + arg_increments.data
    return bool(np.any((v < -0.5) | (v >= 0.5)))
