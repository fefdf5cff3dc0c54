"""Complex signals on rectangular windows and the operators acting on them.

Signals are stored as C-contiguous (row-major, last dimension fastest)
complex arrays whose shape is the window.  All operators allocate fresh
output arrays; inputs are never mutated, so concurrent reads are safe.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .basis import CoefficientVector, phase_field
from .degrees import validate_degree_set

_MAGIC = b"PPSG"


def _check_window(window: Sequence[int]) -> tuple[int, ...]:
    w = tuple(int(v) for v in window)
    if not w or any(v < 1 for v in w):
        raise ValueError(f"window must have positive entries, got {w}")
    return w


@dataclass(frozen=True)
class Signal:
    """Complex field over the window [N], shape == window."""

    window: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        window = _check_window(self.window)
        data = np.ascontiguousarray(self.data, dtype=complex)
        if data.shape != window:
            raise ValueError(f"data shape {data.shape} != window {window}")
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "data", data)

    @property
    def dim(self) -> int:
        return len(self.window)

    @property
    def size(self) -> int:
        return int(np.prod(self.window))


@dataclass(frozen=True)
class RealField:
    """Real field over the window [N], shape == window."""

    window: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        window = _check_window(self.window)
        data = np.ascontiguousarray(self.data, dtype=float)
        if data.shape != window:
            raise ValueError(f"data shape {data.shape} != window {window}")
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "data", data)

    @property
    def dim(self) -> int:
        return len(self.window)


def principal_arg(z: np.ndarray | complex) -> np.ndarray | float:
    """Argument in [-pi, pi), with arg(0) = 0.

    numpy's angle() lands in (-pi, pi]; the single boundary value +pi
    (exact negative reals) is folded to -pi.
    """
    a = np.angle(z)
    if np.ndim(a) == 0:
        return float(-np.pi) if a == np.pi else float(a)
    return np.where(a == np.pi, -np.pi, a)


def synthesize(coeffs: CoefficientVector, N: Sequence[int]) -> Signal:
    """Unit-modulus signal exp(j 2 pi x(n)) over [N] from phase coefficients."""
    N = _check_window(N)
    report = validate_degree_set(coeffs.degree_set, N)
    if not report.window_ok:
        raise ValueError(f"window {N} too small for degrees {coeffs.degree_set.degrees}")
    return Signal(N, np.exp(2j * np.pi * phase_field(coeffs, N)))


def complex_noise(
    window: tuple[int, ...], snr: float, rng: np.random.Generator
) -> np.ndarray:
    """iid circularly-symmetric complex Gaussian noise of variance 1/snr.

    snr is linear.  Each real component has variance 1/(2 snr); the real
    parts are drawn before the imaginary parts, so results are reproducible
    given the generator state.
    """
    if snr <= 0:
        raise ValueError(f"snr must be positive, got {snr}")
    scale = np.sqrt(0.5 / snr)
    return scale * (rng.standard_normal(window) + 1j * rng.standard_normal(window))


def add_noise(s: Signal, snr: float, rng: np.random.Generator) -> Signal:
    """Add :func:`complex_noise` of variance 1/snr (linear) to the signal."""
    return Signal(s.window, s.data + complex_noise(s.window, snr, rng))


def phase_diff(s: Signal, d: int, lag: int = 1) -> Signal:
    """Lagged phase difference along dimension d: s(n + lag e_d) conj(s(n)).

    Output window shrinks by ``lag`` along d.  Lag 1 is the plain phase
    difference operator.
    """
    if not 0 <= d < s.dim:
        raise ValueError(f"dimension {d} out of range for {s.dim}-d signal")
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    if s.window[d] <= lag:
        raise ValueError(f"window {s.window} too small for lag {lag} along dim {d}")
    head = [slice(None)] * s.dim
    tail = [slice(None)] * s.dim
    head[d] = slice(0, s.window[d] - lag)
    tail[d] = slice(lag, s.window[d])
    data = s.data[tuple(tail)] * np.conj(s.data[tuple(head)])
    window = list(s.window)
    window[d] -= lag
    return Signal(tuple(window), data)


def phase_diff_multi(s: Signal, k: Sequence[int], lag: Sequence[int] | int = 1) -> Signal:
    """Apply the phase difference k_d times with lag tau_d along each dim.

    The per-dimension operators commute, so the application order does not
    matter; output window is N - tau*k elementwise.
    """
    k = tuple(int(v) for v in k)
    if len(k) != s.dim:
        raise ValueError(f"index length {len(k)} does not match signal dim {s.dim}")
    if any(v < 0 for v in k):
        raise ValueError(f"negative composition count in {k}")
    tau = as_lag(lag, s.dim)
    if any(Nd < td * kd + 1 for Nd, td, kd in zip(s.window, tau, k)):
        raise ValueError(f"window {s.window} too small for k={k}, lag={tau}")
    out = s
    for d, (kd, td) in enumerate(zip(k, tau)):
        for _ in range(kd):
            out = phase_diff(out, d, td)
    return out


def as_lag(lag: Sequence[int] | int, dim: int) -> tuple[int, ...]:
    """Per-dimension lag from a scalar or a sequence; entries must be >= 1."""
    tau = (int(lag),) * dim if np.ndim(lag) == 0 else tuple(int(v) for v in lag)
    if len(tau) != dim:
        raise ValueError(f"lag {tau} does not match dimensionality {dim}")
    if any(v < 1 for v in tau):
        raise ValueError(f"lag {tau} has entries < 1")
    return tau


def unit_project(data: np.ndarray) -> np.ndarray:
    """Map each sample to exp(j arg(sample)); zero samples stay zero."""
    mag = np.abs(data)
    return np.divide(data, mag, out=np.zeros_like(data), where=mag > 0)


def project_unit_circle(s: Signal) -> Signal:
    """:func:`unit_project` applied to a signal."""
    return Signal(s.window, unit_project(s.data))


def arg_field(s: Signal) -> RealField:
    """Componentwise argument in [-pi, pi), arg(0) = 0."""
    return RealField(s.window, principal_arg(s.data))


def finite_difference(x: RealField, k: Sequence[int]) -> RealField:
    """Forward difference along each dimension, k_d times on dim d.

    Equivalent to the alternating binomial-weighted stencil but computed as
    repeated first differences, keeping the cost at O(|k|) passes over the
    array.
    """
    k = tuple(int(v) for v in k)
    if len(k) != x.dim:
        raise ValueError(f"index length {len(k)} does not match field dim {x.dim}")
    if any(v < 0 for v in k):
        raise ValueError(f"negative difference order in {k}")
    if any(Nd < kd + 1 for Nd, kd in zip(x.window, k)):
        raise ValueError(f"window {x.window} too small for order {k}")
    data = x.data
    for d, kd in enumerate(k):
        for _ in range(kd):
            head = [slice(None)] * x.dim
            tail = [slice(None)] * x.dim
            head[d] = slice(0, data.shape[d] - 1)
            tail[d] = slice(1, data.shape[d])
            data = data[tuple(tail)] - data[tuple(head)]
    return RealField(data.shape, data)


# -- File formats ---------------------------------------------------------------


def write_signal(s: Signal, fh: IO[bytes]) -> None:
    """Binary format: magic 'PPSG', u32 D, u32 N_0..N_{D-1}, then row-major
    little-endian float64 (re, im) pairs."""
    fh.write(struct.pack("<4sI", _MAGIC, s.dim))
    fh.write(struct.pack(f"<{s.dim}I", *s.window))
    fh.write(np.ascontiguousarray(s.data, dtype="<c16").tobytes())


def read_signal(fh: IO[bytes]) -> Signal:
    magic, dim = struct.unpack("<4sI", fh.read(8))
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    window = struct.unpack(f"<{dim}I", fh.read(4 * dim))
    count = int(np.prod(window))
    raw = fh.read(16 * count)
    if len(raw) != 16 * count:
        raise ValueError("truncated signal file")
    data = np.frombuffer(raw, dtype="<c16").astype(complex).reshape(window)
    return Signal(window, data)


def write_signal_csv(s: Signal, fh: IO[str]) -> None:
    """Debug format: one row per sample, columns n_0..n_{D-1}, re, im."""
    writer = csv.writer(fh)
    writer.writerow([f"n_{d}" for d in range(s.dim)] + ["re", "im"])
    for idx in np.ndindex(*s.window):
        v = s.data[idx]
        writer.writerow(list(idx) + [repr(float(v.real)), repr(float(v.imag))])


def read_signal_csv(fh: IO[str]) -> Signal:
    reader = csv.reader(fh)
    header = next(reader)
    dim = len(header) - 2
    entries = {}
    for row in reader:
        idx = tuple(int(v) for v in row[:dim])
        entries[idx] = complex(float(row[dim]), float(row[dim + 1]))
    window = tuple(max(idx[d] for idx in entries) + 1 for d in range(dim))
    data = np.zeros(window, dtype=complex)
    for idx, v in entries.items():
        data[idx] = v
    return Signal(window, data)
