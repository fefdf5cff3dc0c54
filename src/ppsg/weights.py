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
from .degrees import as_index, diff_window
from .signal import RealField


@dataclass(frozen=True)
class WeightField(RealField):
    """Normalized nonnegative weights over the difference window N - tau*k."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if np.any(self.data < 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.data.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {self.data.sum()}, expected 1")


@lru_cache(maxsize=64)
def _weight_axis(k: int, tau: int, N: int) -> np.ndarray:
    """Closed-form weights over [N - tau*k], normalized to sum 1, cached and
    read-only; callers check the window first.

    u(n) is proportional to C(floor(n/tau) + k, k) * C(ceil((N-n)/tau) - 1, k);
    with tau = 1 this is the classic C(n+k, k) C(N-n-1, k) profile.  Step i
    turns C(lo, i) C(hi, i) into C(lo, i+1) C(hi, i+1), and the running
    product is rescaled by a power of two, so every intermediate is an
    integer times a power of two: while those integers stay below 2^53 the
    weights are the correctly rounded rationals, and past that they carry
    about k roundings.

    ``lo`` and ``hi`` are floored in int64, exactly for any window, and
    converted to float once; each step forms ``lo * hi`` in one reused buffer
    before it multiplies the product, then counts both down by one.  So a
    build holds at most four window-sized arrays, and one at k = 0.
    """
    size = N - tau * k
    w = np.ones(size)
    if k:
        lo = (np.arange(size) // tau + k).astype(float)  # floor(n/tau) + k
        hi = (np.arange(N - 1, N - 1 - size, -1) // tau).astype(float)  # ceil((N-n)/tau) - 1
        step = np.empty(size)
    for i in range(k):
        w *= np.multiply(lo, hi, out=step)
        w /= (i + 1) ** 2
        np.ldexp(w, -np.frexp(w.max())[1], out=w)
        lo -= 1
        hi -= 1
    w /= w.sum()
    w.setflags(write=False)
    return w


def weight_axes(k: Sequence[int], tau: Sequence[int], N: Sequence[int]) -> list[np.ndarray]:
    """The cached read-only :func:`_weight_axis` of each dimension, unchecked:
    weights proportional to C(floor(n/tau) + k, k) * C(ceil((N-n)/tau) - 1, k).
    Where k_d = 0 they are 1/N_d whatever the lag, so every lag shares the
    unit lag's axis."""
    return [_weight_axis(kd, td if kd else 1, Nd) for kd, td, Nd in zip(k, tau, N)]


def weight_multi(
    k: Sequence[int], tau: Sequence[int] | int, N: Sequence[int]
) -> WeightField:
    """Tensor product of per-dimension closed-form weights."""
    k, N = as_index(k), as_index(N)
    window, tau = diff_window(N, k, tau)
    data = tensor_field(weight_axes(k, tau, N))
    data = data / data.sum()  # counter accumulated rounding in high dims
    return WeightField(window, data)
