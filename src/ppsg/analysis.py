"""Fisher information, CRB, discrete orthogonal polynomials, and scalar
performance measures for phase-polynomial estimation.

The Fisher matrix for binomial-basis coefficients is a scaled Gram matrix of
the binomial fields over the window.  Its decomposition through a family of
discrete orthogonal polynomials underpins both the CRB computations and the
integer-exact identity checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .degrees import DegreeSet, as_index, binom, diff_window
from .basis import binomial_field, tensor_field
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


@dataclass(frozen=True)
class DecompositionPair:
    """Inner-product matrix S and orthogonal-polynomial sample matrix Q.

    S[k, m] = <C(n, m), q_k> over the window, Q[k, :] = q_k flattened; they
    satisfy J = 8 pi^2 SNR S^T (Q Q^T)^{-1} S.
    """

    S: np.ndarray
    Q: np.ndarray
    degree_set: DegreeSet


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


@lru_cache(maxsize=None)
def _ortho_axis_int(k: int, N: int) -> tuple[int, ...]:
    """1-D orthogonal polynomial samples q_k(n), n in [N], exact integers.

    Uses the expanded triple-binomial form; the equivalent definition as the
    k-th difference of C(n, k) C(n-N, k) is kept as a test oracle because
    repeated differencing of large products is not integer-safe in floats.
    """
    if not 0 <= k < N:
        raise ValueError(f"require 0 <= k < N, got k={k}, N={N}")
    samples = []
    for n in range(N):
        total = 0
        for ell in range(max(0, n - k), min(N - k - 1, n) + 1):
            sign = -1 if (k + n + ell) % 2 else 1
            total += (
                sign
                * binom(ell + k, k)
                * binom(N - ell - 1, k)
                * binom(k, n - ell)
            )
        samples.append(total)
    return tuple(samples)


def orthogonal_poly(k: Sequence[int], N: Sequence[int], n: Sequence[int]) -> int:
    """q_k(n): product over dimensions of the 1-D orthogonal polynomials."""
    k, N, n = as_index(k), as_index(N), as_index(n)
    if not (len(k) == len(N) == len(n)):
        raise ValueError("k, N, n must have equal lengths")
    result = 1
    for kd, Nd, nd in zip(k, N, n):
        axis = _ortho_axis_int(kd, Nd)
        if not 0 <= nd < Nd:
            raise ValueError(f"sample index {nd} outside window [{Nd}]")
        result *= axis[nd]
    return result


def orthogonal_poly_field(k: Sequence[int], N: Sequence[int]) -> np.ndarray:
    """q_k sampled over the full window [N]."""
    k, N = as_index(k), as_index(N)
    return tensor_field(
        [np.array(_ortho_axis_int(kd, Nd), dtype=float) for kd, Nd in zip(k, N)]
    )


def _inner_product_axis(m: int, k: int, N: int) -> int:
    """<C(n, m), q_k> in one dimension, exact integers.

    Closed form sum_{n in [N-k]} C(n, m-k) C(n+k, k) C(N-n-1, k); vanishes
    whenever m < k.
    """
    total = 0
    for n in range(N - k):
        c = binom(n, m - k)
        if c:
            total += c * binom(n + k, k) * binom(N - n - 1, k)
    return total


def decomposition(M: DegreeSet, N: Sequence[int]) -> DecompositionPair:
    """Build S and Q for the Fisher decomposition over a downward-closed set."""
    N = as_index(N)
    diff_window(N, M.max_degree)
    if not M.is_downward_closed():
        raise ValueError(
            "decomposition requires a downward-closed degree set; the lower "
            "degrees carry nonzero inner products that S must capture"
        )
    size = len(M)
    S = np.zeros((size, size))
    for i, k in enumerate(M.degrees):
        for j, m in enumerate(M.degrees):
            entry = 1
            for kd, md, Nd in zip(k, m, N):
                entry *= _inner_product_axis(md, kd, Nd)
                if entry == 0:
                    break
            S[i, j] = float(entry)
    Q = np.vstack([orthogonal_poly_field(k, N).ravel() for k in M.degrees])
    pair = DecompositionPair(S, Q, M)
    J = fisher_matrix(M, N, 1.0).matrix
    recon = 8 * np.pi**2 * (S.T @ np.linalg.solve(Q @ Q.T, S))
    if not np.linalg.norm(recon - J) <= 1e-8 * np.linalg.norm(J):
        raise RuntimeError("Fisher decomposition identity violated")
    return pair


def reconstruction_bound(M: DegreeSet, snr: float) -> float:
    """High-SNR floor of the signal reconstruction MSE: |M| / (2 snr).

    Independent of the window size.
    """
    if snr <= 0:
        raise ValueError(f"snr must be positive, got {snr}")
    return len(M) / (2.0 * snr)


def tr_kj(K: np.ndarray, J: FisherMatrix) -> float:
    """Trace of K J: the scalar efficiency measure.

    Equals |M| exactly when K attains the CRB; equals 2 SNR times the
    high-SNR reconstruction MSE for an unbiased estimator with covariance K.
    """
    K = np.asarray(K, dtype=float)
    if K.shape != J.matrix.shape:
        raise ValueError(f"shape mismatch: {K.shape} vs {J.matrix.shape}")
    return float(np.trace(K @ J.matrix))


def naive_penalty(M_degree: int) -> float:
    """Asymptotic reconstruction-MSE factor lost by zeroing the nuisance
    coefficients of a single monomial of degree M: C(2M, M)^2."""
    if M_degree < 0:
        raise ValueError(f"degree must be >= 0, got {M_degree}")
    return float(binom(2 * M_degree, M_degree) ** 2)


def outlier_predicate(arg_increments: RealField, b_k: float) -> bool:
    """Phase-wrapping test for one degree.

    ``arg_increments`` is the already-differenced per-sample argument noise
    field for that degree; the event is b_k plus any increment leaving the
    half-open cell [-1/2, 1/2).
    """
    v = b_k + arg_increments.data
    return bool(np.any((v < -0.5) | (v >= 0.5)))
