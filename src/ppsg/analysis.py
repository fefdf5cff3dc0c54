"""Fisher information, CRB, and scalar performance measures for
phase-polynomial estimation.

The Fisher matrix for binomial-basis coefficients is a scaled Gram matrix of
the binomial fields over the window, and the CRB is its inverse.  Its
decomposition through discrete orthogonal polynomials, and the ``tr(KJ)``
efficiency measure, are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .degrees import DegreeSet, as_index, diff_window
from .basis import binomial_field
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


def _design_matrix(M: DegreeSet, N: tuple[int, ...]) -> np.ndarray:
    """Columns are the binomial fields C(n, m) flattened over [N]."""
    return np.column_stack([binomial_field(m, N).ravel() for m in M.degrees])


def fisher_matrix(M: DegreeSet, N: Sequence[int], snr: float) -> FisherMatrix:
    """Entries 8 pi^2 snr sum_n C(n, m) C(n, m')."""
    N = as_index(N)
    diff_window(N, M.max_degree)
    B = _design_matrix(M, N)
    return FisherMatrix(8 * np.pi**2 * snr * (B.T @ B), M, float(snr))


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
