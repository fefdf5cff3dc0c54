"""Optimal averaging weights for lagged phase differences.

The colored noise left by composing lagged differences has a banded integer
covariance kernel; the minimum-variance weights C^{-1}1 / (1^T C^{-1} 1)
admit a closed form as a product of two binomial coefficients per sample.
`tests/oracles.py` checks it against a dense covariance build and solve.

Each axis is cached as the shortest prefix that fixes it, one sample at
degree 0 and the mirror half otherwise, and only that prefix is built, in
the bytes of a whole-axis build (``build_axis`` in ``tests/oracles.py``).
:func:`weight_rows` expands any rows of it, so no window-length weight axis
is kept between calls.  The estimator reads :func:`weight_prefixes`;
:func:`weight_axes` and :func:`weight_multi`, which serves the CLI, give
whole axes.
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
    """The shortest prefix that fixes the closed-form weight axis over
    [N - tau*k], normalized to sum 1, cached and read-only; callers check
    the window first, and :func:`weight_rows` expands it.

    u(n) is proportional to C(floor(n/tau) + k, k) * C(ceil((N-n)/tau) - 1, k);
    with tau = 1 this is the classic C(n+k, k) C(N-n-1, k) profile.  At
    k = 0 every weight is 1/L, so the prefix is that one sample.  Otherwise
    it is the first ceil(L/2) samples: the mirror sample L-1-n has ``lo``
    and ``hi`` swapped, and every step is elementwise in ``lo * hi``, so the
    axis is symmetric bit for bit, w[n] == w[L-1-n], and only the prefix is
    built.  Step i turns C(lo, i) C(hi, i) into C(lo, i+1) C(hi, i+1) and
    rescales the running product by a power of two, so every intermediate
    is an integer times a power of two: while those integers stay below 2^53
    the weights are the correctly rounded rationals, and past that they
    carry about k roundings.

    ``lo`` and ``hi`` are floored from float ``arange``s, exactly while
    n < 2^53 - tau; each step forms ``lo * hi`` in one reused buffer before
    it multiplies the product, then counts both down by one.  The sum that
    normalizes is taken over the whole axis, the prefix and its mirror, in
    numpy's own pairwise order, so the prefix holds the first samples of
    the whole-axis build (``tests/oracles.py`` keeps it) bit for bit.  A
    build holds at most two window-sized arrays: the prefix, ``lo``, ``hi``
    and the step, half an axis each, then the prefix and the mirrored axis.
    """
    size = N - tau * k
    if k == 0:
        prefix = np.array([1.0 / size])  # the pairwise sum of L ones is L
        prefix.setflags(write=False)
        return prefix
    # Allocated before the build, so that the build's temporaries, freed,
    # leave no hole in the heap below the cached prefix.
    prefix = np.ones((size + 1) // 2)
    lo = np.arange(len(prefix), dtype=float)
    hi = np.arange(N - 1, N - 1 - len(prefix), -1, dtype=float)
    for x in lo, hi:
        np.floor(np.divide(x, tau, out=x), out=x)
    lo += k  # floor(n/tau) + k; hi is ceil((N-n)/tau) - 1
    step = np.empty(len(prefix))
    for i in range(k):
        prefix *= np.multiply(lo, hi, out=step)
        prefix /= (i + 1) ** 2
        np.ldexp(prefix, -np.frexp(prefix.max())[1], out=prefix)
        lo -= 1
        hi -= 1
    del lo, hi, step  # so the mirrored axis does not meet them
    prefix /= weight_rows(prefix, size).sum()
    prefix.setflags(write=False)
    return prefix


def weight_rows(
    w: np.ndarray, L: int, a: int = 0, b: int | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Rows [a, b) (all by default) of the weight axis of length L whose
    :func:`_weight_axis` prefix is ``w``, as a contiguous array: the slice
    ``w[a:b]`` where the rows lie in the prefix, else ``out[:b-a]`` if
    given, or a new one.  A one-sample prefix is constant; past a longer
    one, sample n is w[L-1-n].  A whole axis is its own prefix.

    Rows past the prefix are copied, never a reversed view or a broadcast:
    ``einsum`` would sum either in another order than the axis it stands
    for.  It sums a forward slice in the order of the axis.
    """
    b = L if b is None else b
    if b <= len(w):
        return w[a:b]
    out = np.empty(b - a) if out is None else out[: b - a]
    if len(w) == 1:
        out.fill(w[0])
        return out
    mid = max(a, len(w))  # rows [a, mid) lie in the prefix, [mid, b) mirror it
    out[: mid - a] = w[a:mid]
    out[mid - a :] = w[L - b : L - mid][::-1]
    return out


def weight_prefixes(k: Sequence[int], tau: Sequence[int], N: Sequence[int]) -> list[np.ndarray]:
    """The cached read-only :func:`_weight_axis` prefix of each dimension,
    unchecked.  Where k_d = 0 the weights are 1/N_d whatever the lag, so
    every lag shares the unit lag's axis."""
    return [_weight_axis(kd, td if kd else 1, Nd) for kd, td, Nd in zip(k, tau, N)]


def weight_axes(k: Sequence[int], tau: Sequence[int], N: Sequence[int]) -> list[np.ndarray]:
    """The whole weight axis of each dimension, unchecked: weights
    proportional to C(floor(n/tau) + k, k) * C(ceil((N-n)/tau) - 1, k),
    expanded from :func:`weight_prefixes`."""
    prefixes = weight_prefixes(k, tau, N)
    return [weight_rows(w, Nd - td * kd) for w, kd, td, Nd in zip(prefixes, k, tau, N)]


def weight_multi(
    k: Sequence[int], tau: Sequence[int] | int, N: Sequence[int]
) -> WeightField:
    """Tensor product of per-dimension closed-form weights."""
    k, N = as_index(k), as_index(N)
    window, tau = diff_window(N, k, tau)
    data = tensor_field(weight_axes(k, tau, N))
    data = data / data.sum()  # counter accumulated rounding in high dims
    return WeightField(window, data)
