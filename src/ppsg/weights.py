"""Optimal averaging weights for lagged phase differences.

The colored noise left by composing lagged differences has a banded integer
covariance kernel; the minimum-variance weights C^{-1}1 / (1^T C^{-1} 1)
admit a closed form as a product of two binomial coefficients per sample.
`tests/oracles.py` checks it against a dense covariance build and solve.
The estimator reads :func:`weight_axes`; :func:`weight_multi` serves the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .basis import tensor_field
from .degrees import as_index, binom, diff_window
from .signal import RealField

# Above this per-dimension window length the closed form switches from exact
# integer products (which would overflow practical magnitudes around
# C(N+k, 2k+1) for N ~ 1e4) to log-space accumulation.
_EXACT_LIMIT = 64


@dataclass(frozen=True)
class WeightField(RealField):
    """Normalized nonnegative weights over the difference window N - tau*k."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if np.any(self.data < 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.data.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {self.data.sum()}, expected 1")


def _weight_1d_exact(k: int, tau: int, N: int) -> np.ndarray:
    raw = [
        binom(n // tau + k, k) * binom(-((n - N) // tau) - 1, k)
        for n in range(N - tau * k)
    ]
    total = sum(raw)
    return np.array([r / total for r in raw])


def _weight_1d_log(k: int, tau: int, N: int) -> np.ndarray:
    n = np.arange(N - tau * k)
    left = n // tau + k
    right = -((n - N) // tau) - 1  # ceil((N - n)/tau) - 1
    log_w = _log_binom(left, k) + _log_binom(right, k)
    log_w -= log_w.max()
    w = np.exp(log_w)
    return w / w.sum()


def _log_binom(n: np.ndarray, k: int) -> np.ndarray:
    from scipy.special import gammaln

    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


@lru_cache(maxsize=None)
def _weight_axis(k: int, tau: int, N: int) -> np.ndarray:
    """Cached read-only :func:`weight_1d`; callers check the window first."""
    out = _weight_1d_exact(k, tau, N) if N <= _EXACT_LIMIT else _weight_1d_log(k, tau, N)
    out.setflags(write=False)
    return out


def weight_1d(k: int, tau: int, N: int) -> np.ndarray:
    """Closed-form weights over [N - tau*k], normalized to sum 1.

    u(n) is proportional to C(floor(n/tau) + k, k) * C(ceil((N-n)/tau) - 1, k);
    with tau = 1 this is the classic C(n+k, k) C(N-n-1, k) profile.
    """
    k, tau, N = as_index((k, tau, N))
    diff_window((N,), (k,), tau)
    return np.array(_weight_axis(k, tau, N))


def weight_axes(k: Sequence[int], tau: Sequence[int], N: Sequence[int]) -> list[np.ndarray]:
    """The cached read-only :func:`weight_1d` of each dimension, unchecked."""
    return [_weight_axis(kd, td, Nd) for kd, td, Nd in zip(k, tau, N)]


def weight_multi(
    k: Sequence[int], tau: Sequence[int] | int, N: Sequence[int]
) -> WeightField:
    """Tensor product of per-dimension closed-form weights."""
    k, N = as_index(k), as_index(N)
    window, tau = diff_window(N, k, tau)
    data = tensor_field(weight_axes(k, tau, N))
    data = data / data.sum()  # counter accumulated rounding in high dims
    return WeightField(window, data)
