"""Reference implementations that only the tests use."""

from typing import Sequence

import numpy as np

from ppsg.degrees import multi_binom
from ppsg.signal import RealField


def finite_difference_stencil(x: RealField, k: Sequence[int]) -> RealField:
    """Reference form of the difference: alternating binomial stencil.

    (Delta^k x)(n) = sum_l (-1)^{|k+l|} C(k, l) x(n + l), l in [k+1].
    Quadratic in the stencil size, kept for cross-checks.
    """
    k = tuple(int(v) for v in k)
    if any(Nd < kd + 1 for Nd, kd in zip(x.window, k)):
        raise ValueError(f"window {x.window} too small for order {k}")
    out_shape = tuple(Nd - kd for Nd, kd in zip(x.window, k))
    out = np.zeros(out_shape)
    for ell in np.ndindex(*(kd + 1 for kd in k)):
        sign = -1 if (sum(k) + sum(ell)) % 2 else 1
        weight = sign * multi_binom(k, ell)
        block = x.data[tuple(slice(ld, ld + sd) for ld, sd in zip(ell, out_shape))]
        out += weight * block
    return RealField(out_shape, out)
