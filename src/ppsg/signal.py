"""Complex signals on rectangular windows and the operators acting on them.

Signals are stored as C-contiguous (row-major, last dimension fastest)
complex arrays whose shape is the window.  All operators allocate fresh
output arrays; inputs are never mutated, so concurrent reads are safe.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .basis import _TURN, CoefficientVector, phase_turns
from .basis import phase_field  # noqa: F401  not called; benchmarks/spans.py rebinds it
from .degrees import as_index, diff_window
from .degrees import validate_degree_set  # noqa: F401  not called; benchmarks/spans.py rebinds it

_MAGIC = b"PPSG"


@dataclass(frozen=True)
class _Field:
    """Field over the window [N], shape == window; subclasses fix the dtype."""

    window: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        window = as_index(self.window)
        if not window or min(window) < 1:
            raise ValueError(f"window must have positive entries, got {window}")
        data = np.ascontiguousarray(self.data, dtype=self._dtype)
        if data.shape != window:
            raise ValueError(f"data shape {data.shape} != window {window}")
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "data", data)

    @property
    def dim(self) -> int:
        return len(self.window)


@dataclass(frozen=True)
class Signal(_Field):
    """Complex field over the window [N], shape == window."""

    _dtype = complex


@dataclass(frozen=True)
class RealField(_Field):
    """Real field over the window [N], shape == window."""

    _dtype = float


def synthesize(coeffs: CoefficientVector, N: Sequence[int]) -> Signal:
    """Unit-modulus signal exp(j 2 pi x(n)) over [N], one ``exp`` of exact phase turns."""
    N = as_index(N)
    diff_window(N, coeffs.degree_set.max_degree)
    x = 2j * np.pi * _TURN * phase_turns(coeffs.values[None], coeffs.degree_set, N, coeffs.basis)
    return Signal(N, np.exp(x[0], out=x[0]))


def complex_noise(
    window: tuple[int, ...], snr: float, rng: np.random.Generator
) -> np.ndarray:
    """iid circularly-symmetric complex Gaussian noise of variance 1/snr.

    snr is linear.  Each real component has variance 1/(2 snr); the real
    parts are drawn before the imaginary parts, so results are reproducible
    given the generator state.
    """
    return _form_noise(rng.standard_normal((1, 2, *window)), snr)[0]


def _is_snr(snr: float) -> bool:
    """Whether a linear SNR and its inverse are finite and positive, the one
    rule every SNR the library takes must meet; NaN fails."""
    return 0.0 < snr < math.inf and 1.0 / snr < math.inf


def _form_noise(gauss: np.ndarray, snr: float) -> np.ndarray:
    """Complex noise of variance 1/snr (linear), shape (B, *N), from a
    (B, 2, *N) buffer of standard normals, the real parts first."""
    if not _is_snr(snr):
        raise ValueError(f"snr must be positive, finite and have a finite inverse, got {snr}")
    noise = 1j * gauss[:, 1]
    noise += gauss[:, 0]
    noise *= np.sqrt(0.5 / snr)
    return noise


def add_noise(s: Signal, snr: float, rng: np.random.Generator) -> Signal:
    """Add :func:`complex_noise` of variance 1/snr (linear) to the signal."""
    return Signal(s.window, s.data + complex_noise(s.window, snr, rng))


def _difference(data: np.ndarray, k: Sequence[int], tau: Sequence[int], step) -> np.ndarray:
    """Apply ``step(data[n + tau_d e_d], data[n])`` k_d times along each dim d.

    ``data`` has shape (B, *N): a batch of fields, the batch axis leading.
    The loop works on raw arrays and walks the dimensions in order, so it
    costs O(|k|) passes; each step shortens dim d by tau_d.  With k = 0 the
    input itself is returned.
    """
    for d, (kd, td) in enumerate(zip(k, tau), start=1):
        lead = (slice(None),) * d
        for _ in range(kd):
            n = data.shape[d]
            data = step(data[lead + (slice(td, n),)], data[lead + (slice(0, n - td),)])
    return data


def _conj_product(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """``later * conj(earlier)``, in that operand order at every size: numpy's
    own reuse of a large temporary would swap them."""
    out = np.conjugate(earlier)
    return np.multiply(later, out, out=out)


def phase_diff_multi(s: Signal, k: Sequence[int], lag: Sequence[int] | int = 1) -> Signal:
    """Apply the phase difference k_d times with lag tau_d along each dim.

    The per-dimension operators commute, so the application order does not
    matter; output window is N - tau*k elementwise.
    """
    k = as_index(k)
    window, tau = diff_window(s.window, k, lag)
    out = _difference(s.data[None], k, tau, _conj_product)[0]
    return Signal(window, out if any(k) else out.copy())


# -- File formats ---------------------------------------------------------------


def write_signal(s: Signal, fh: IO[bytes]) -> None:
    """Binary format: magic 'PPSG', u32 D, u32 N_0..N_{D-1}, then row-major
    little-endian float64 (re, im) pairs."""
    fh.write(struct.pack("<4sI", _MAGIC, s.dim))
    fh.write(struct.pack(f"<{s.dim}I", *s.window))
    fh.write(np.ascontiguousarray(s.data, dtype="<c16").tobytes())


def read_signal(fh: IO[bytes]) -> Signal:
    """Read the :func:`write_signal` format.

    The file is read whole and every length in the header is checked against
    it, so a truncated file raises ValueError instead of allocating for the
    window it declares.
    """
    raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"truncated signal file: {len(raw)} bytes, the header needs 8")
    magic, dim = struct.unpack_from("<4sI", raw)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    start = 8 + 4 * dim
    if len(raw) < start:
        raise ValueError(f"truncated signal file: the header declares {dim} dimensions")
    window = struct.unpack_from(f"<{dim}I", raw, 8)
    count = math.prod(window)
    if len(raw) < start + 16 * count:
        raise ValueError(f"truncated signal file: window {window} needs {16 * count} bytes")
    data = np.frombuffer(raw, "<c16", count, start).astype(complex).reshape(window)
    return Signal(window, data)
