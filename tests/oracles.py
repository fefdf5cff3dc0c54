"""Reference implementations and helpers that only the tests use."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from ppsg.analysis import FisherMatrix, fisher_matrix, outlier_predicate
from ppsg.basis import BINOMIAL, CoefficientVector, phase_field, tensor_field, wrap_to_cell
from ppsg.degrees import DegreeSet, as_index, diff_window
from ppsg.estimator import (
    _ANCHOR_SAMPLES,
    _TURN,
    TWO_PI,
    AveragingKind,
    EstimatorConfig,
    _phase_turns,
    estimate,
)
from ppsg.harness import (
    ExperimentConfig,
    ExperimentResult,
    TrialResult,
    _aggregate,
    _draw_coefficients,
    _trial_rng,
    snr_db_to_linear,
)
from ppsg.signal import (
    RealField,
    Signal,
    _difference,
    complex_noise,
    phase_diff_multi,
    synthesize,
)
from ppsg.weights import WeightField, _weight_axis, weight_axes


def principal_arg(z: np.ndarray | complex) -> np.ndarray | float:
    """Argument in [-pi, pi), with arg(0) = 0 for a zero of either sign.

    ``arctan2(imag, real)`` lands in [-pi, pi] and returns +-pi for +-0 over
    -0, so +0.0 is added to the real part first; the single boundary value
    +pi (exact negative reals) is folded to -pi.
    """
    z = np.asarray(z)
    a = np.arctan2(z.imag, z.real + 0.0)
    a = np.where(a == np.pi, -np.pi, a)
    return float(a) if a.ndim == 0 else a


def binom(n: int, k: int) -> int:
    """Generalized binomial coefficient n(n-1)...(n-k+1)/k! for integer n.

    Returns 0 for k < 0.  Exact integer arithmetic for any n, including
    negative n (e.g. binom(-1, 2) == 1).
    """
    if k < 0:
        return 0
    result = 1
    for i in range(k):
        result = result * (n - i) // (i + 1)
    return result


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


def covariance_axis(k: int, tau: int, N: int) -> np.ndarray:
    """1-D integer covariance kernel of the lagged difference over [N - tau*k].

    The physical covariance carries an extra scalar 1/(8 pi^2 SNR), which
    cancels in the weight normalization.  Entry (n, n') vanishes unless
    n = n' (mod tau); on a congruence class it is (-1)^d C(2k, k + d) with
    d = (n - n')/tau, i.e. the lag-1 kernel of that class.
    """
    (size,), (tau,) = diff_window((N,), (k,), tau)
    n = np.arange(size)
    delta = n[:, None] - n[None, :]
    out = np.zeros((size, size))
    on_class = delta % tau == 0
    d = delta[on_class] // tau
    vals = np.array([(-1 if dd % 2 else 1) * binom(2 * k, k + dd) for dd in d], dtype=float)
    out[on_class] = vals
    return out


def covariance_matrix(
    k: Sequence[int], tau: Sequence[int] | int, N: Sequence[int]
) -> np.ndarray:
    """Dense integer covariance kernel over the flattened window [N - tau*k].

    Built as a Kronecker product of per-dimension kernels, matching the
    row-major flattening of the window.
    """
    k, N = as_index(k), as_index(N)
    _, tau = diff_window(N, k, tau)
    matrix = np.ones((1, 1))
    for kd, td, Nd in zip(k, tau, N):
        matrix = np.kron(matrix, covariance_axis(kd, td, Nd))
    return matrix


def weight_via_inversion(
    k: Sequence[int], tau: Sequence[int] | int, N: Sequence[int]
) -> WeightField:
    """Minimum-variance weights from the dense solve C w = 1, normalized.

    A Cholesky failure means the kernel construction is wrong, not a
    tolerance problem, so it propagates.  The solve is cubic in the window
    size: keep windows at desk scale.
    """
    from scipy.linalg import cho_factor, cho_solve

    k, N = as_index(k), as_index(N)
    window, tau = diff_window(N, k, tau)
    solved = cho_solve(cho_factor(covariance_matrix(k, tau, N)), np.ones(math.prod(window)))
    return WeightField(window, (solved / solved.sum()).reshape(window))


def multi_binom(n: Sequence[int], m: Sequence[int]) -> int:
    """Product of per-dimension binomial coefficients."""
    if len(n) != len(m):
        raise ValueError(f"length mismatch: {len(n)} vs {len(m)}")
    result = 1
    for nd, md in zip(n, m):
        result *= binom(nd, md)
        if result == 0:
            return 0
    return result


def phase_diff(s: Signal, d: int, lag: int = 1) -> Signal:
    """Lagged phase difference along dimension d: s(n + lag e_d) conj(s(n)).

    Output window shrinks by ``lag`` along d.  Lag 1 is the plain phase
    difference operator.
    """
    if not 0 <= d < s.dim:
        raise ValueError(f"dimension {d} out of range for {s.dim}-d signal")
    return phase_diff_multi(s, tuple(int(i == d) for i in range(s.dim)), lag)


def finite_difference(x: RealField, k: Sequence[int]) -> RealField:
    """Forward difference along each dimension, k_d times on dim d.

    Equivalent to the alternating binomial-weighted stencil but computed as
    repeated first differences, keeping the cost at O(|k|) passes over the
    array.
    """
    k = as_index(k)
    window, tau = diff_window(x.window, k)
    out = _difference(x.data[None], k, tau, np.subtract)[0]
    return RealField(window, out if any(k) else out.copy())


def weight_1d(k: int, tau: int, N: int) -> np.ndarray:
    """Closed-form weights over [N - tau*k], normalized to sum 1.

    u(n) is proportional to C(floor(n/tau) + k, k) * C(ceil((N-n)/tau) - 1, k);
    with tau = 1 this is the classic C(n+k, k) C(N-n-1, k) profile.
    """
    k, tau, N = as_index((k, tau, N))
    diff_window((N,), (k,), tau)
    return np.array(_weight_axis(k, tau, N))


def weight_fraction(k: int, tau: int, N: int, points: Sequence[int]) -> list[Fraction]:
    """The closed-form weights at ``points`` as exact rationals: exact integer
    products C(n//tau + k, k) C((N-1-n)//tau, k) over their sum.

    Congruence class r of the window holds L_r = (N-1-r)//tau + 1 samples of
    the full window, and its weights sum to C(L_r + k, 2k + 1), so the total
    needs no pass over the window.
    """
    total = sum(binom((N - 1 - r) // tau + 1 + k, 2 * k + 1) for r in range(tau))
    return [
        Fraction(binom(n // tau + k, k) * binom((N - 1 - n) // tau, k), total) for n in points
    ]


def weight_axis_float_floor(k: int, tau: int, N: int) -> np.ndarray:
    """The earlier build of the closed-form weights, kept as a bitwise
    reference: ``lo`` and ``hi`` floored on float64 arrays, and a fresh
    temporary for each step's product."""
    n = np.arange(N - tau * k, dtype=float)
    lo = n // tau + k  # floor(n/tau) + k
    hi = (N - 1 - n) // tau  # ceil((N-n)/tau) - 1
    w = np.ones_like(n)
    for i in range(k):
        w *= (lo - i) * (hi - i)
        w /= (i + 1) ** 2
        np.ldexp(w, -np.frexp(w.max())[1], out=w)
    w /= w.sum()
    return w


def binomial_transform(x: np.ndarray, k: Sequence[int]) -> float:
    """Recover the binomial coefficient b_k of a polynomial field exactly.

    For a field x sampled over a window [N] with N >= k+1 that is polynomial
    with degrees in some valid degree set, returns
    sum_l (-1)^{|k+l|} C(k, l) x(l); the alternating weights vanish outside
    the box [k+1], so only that corner of the window is read.
    """
    x = np.asarray(x, dtype=float)
    k = as_index(k)
    diff_window(x.shape, k)
    corner = x[tuple(slice(0, kd + 1) for kd in k)]
    total = 0.0
    for ell in np.ndindex(*corner.shape):
        sign = -1 if (sum(k) + sum(ell)) % 2 else 1
        total += sign * multi_binom(k, ell) * corner[ell]
    return float(total)


def binomial_coefficients_of_field(x: np.ndarray, M: DegreeSet) -> CoefficientVector:
    """Apply the inversion formula at every degree of M."""
    values = np.array([binomial_transform(x, m) for m in M.degrees])
    return CoefficientVector(values, BINOMIAL, M)


@dataclass(frozen=True)
class DecompositionPair:
    """Inner-product matrix S and orthogonal-polynomial sample matrix Q.

    S[k, m] = <C(n, m), q_k> over the window, Q[k, :] = q_k flattened; they
    satisfy J = 8 pi^2 SNR S^T (Q Q^T)^{-1} S.
    """

    S: np.ndarray
    Q: np.ndarray
    degree_set: DegreeSet


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


def integer_gram(M: DegreeSet, N: Sequence[int]) -> list[list[int]]:
    """sum_n C(n, m) C(n, m') over the window [N] for every pair of degrees of
    M, summed sample by sample in Python integers."""
    fields = [[math.prod(map(math.comb, n, m)) for n in np.ndindex(*N)] for m in M.degrees]
    return [[sum(x * y for x, y in zip(f, g)) for g in fields] for f in fields]


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


def parameter_invariance_witness(
    y: Signal, x_true: RealField, cfg: EstimatorConfig
) -> np.ndarray:
    """Integer witness of the estimator's parameter invariance.

    For CIRCULAR averaging, which is rotation-equivariant, estimating the
    observation and the derotated observation differs from the true
    coefficients by an exact integer vector; the fractional parts are
    checked against 1e-6 before rounding, so a violation surfaces as an
    error rather than a silent rounding.
    """
    if cfg.averaging is not AveragingKind.CIRCULAR:
        raise ValueError(f"{cfg.averaging.name} averaging is not rotation-equivariant")
    if x_true.window != y.window:
        raise ValueError(f"window mismatch: {x_true.window} vs {y.window}")
    b_true = binomial_coefficients_of_field(x_true.data, cfg.degree_set)
    derotated = Signal(y.window, y.data * np.exp(-2j * np.pi * x_true.data))
    est = estimate(y, cfg)
    est_derotated = estimate(derotated, cfg)
    diff = est.binomial.values - b_true.values - est_derotated.binomial.values
    rounded = np.rint(diff)
    frac = np.abs(diff - rounded)
    if np.any(frac > 1e-6):
        raise RuntimeError(
            f"invariance violated: fractional parts {frac.max():.3e} exceed 1e-6"
        )
    return rounded.astype(int)


def reference_trial(cfg: ExperimentConfig, snr: float, trial_index: int, snr_index: int = 0):
    """One Monte-Carlo trial through the single-signal functions, one step at a
    time: the per-trial pipeline that batched sweeps must reproduce."""
    rng = _trial_rng(cfg, snr_index, trial_index)
    b_true = CoefficientVector(_draw_coefficients(cfg, rng), BINOMIAL, cfg.degree_set)
    clean = synthesize(b_true, cfg.window)
    noise = complex_noise(cfg.window, snr, rng)
    est = estimate(Signal(cfg.window, clean.data + noise), cfg.estimator_config)
    recon = np.exp(2j * np.pi * phase_field(est.binomial, cfg.window))
    error = float(np.sum(np.abs(recon - clean.data) ** 2))
    rotated = np.conj(clean.data) * noise
    increments = RealField(cfg.window, principal_arg(1.0 + rotated) / (2.0 * np.pi))
    wrapped = any(
        outlier_predicate(finite_difference(increments, k), b_true[k])
        for k in cfg.degree_set.degrees
    )
    return TrialResult(error, wrapped, est, b_true)


def reference_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """The SNR grid run one :func:`reference_trial` after another."""
    records = []
    for snr_index, snr_db in enumerate(cfg.snr_db_grid):
        snr = snr_db_to_linear(snr_db)
        results = [reference_trial(cfg, snr, t, snr_index) for t in range(cfg.trials)]
        errors = np.array([r.reconstruction_error for r in results])
        wrapped = np.array([r.wrapped for r in results], dtype=bool)
        records.append(_aggregate(snr_db, snr, cfg, errors, wrapped))
    return ExperimentResult(tuple(records), cfg)


def whole_field_mean(kind: AveragingKind, turns: np.ndarray, w: list[np.ndarray]) -> np.ndarray:
    """Weighted mean phase of each field of a batch of int64 turns, shape
    (B, *window) -> (B,), in cycles, over the whole field at once.

    CIRCULAR subtracts the anchor: the argument of the resultant of the
    samples at flat stride ``ceil(size / _ANCHOR_SAMPLES)``, each taken
    relative to the first and summed in float64 from the float32 ``cos`` and
    ``sin`` of its phase, plus the first sample.  ``einsum``
    contracts ``w`` one axis at a time; it sums an axis longer than its
    buffer in pieces, split one way for a batch and another for a lone
    signal, so such an axis is contracted signal by signal.
    """
    anchor = np.zeros(len(turns), np.int64)
    if kind is AveragingKind.CIRCULAR:
        flat = turns.reshape(len(turns), -1)
        sub = flat[:, :: -(-flat.shape[1] // _ANCHOR_SAMPLES)]
        x = ((sub - sub[:, :1]) * (TWO_PI * _TURN)).astype(np.float32)
        re, im = np.cos(x).sum(axis=-1, dtype=float), np.sin(x).sum(axis=-1, dtype=float)
        anchor = sub[:, 0] + _phase_turns(re, im).astype(np.int64)
        turns = turns - anchor.reshape((-1,) + (1,) * (turns.ndim - 1))
    f = turns.astype(float)
    for wd in reversed(w):
        if f.shape[-1] > np.getbufsize():
            f = np.stack([np.einsum("...n,n->...", row, wd) for row in f])
        else:
            f = np.einsum("...n,n->...", f, wd)
    return wrap_to_cell((anchor + f) * _TURN)


def whole_field_stage(kind, turns, m, tau, shift, w) -> np.ndarray:
    """One (m, tau) stage over the whole window: the full difference of the
    turns, less ``shift`` (int64 per signal, or None), averaged."""
    diffed = _difference(turns, m, tau, np.subtract)
    if shift is not None:
        diffed = diffed - shift.reshape((-1,) + (1,) * len(m))
    return whole_field_mean(kind, diffed, w)


@lru_cache(maxsize=None)
def comb_axis_mod(n_count: int, m: int) -> np.ndarray:
    """C(n, m) mod 2^64 for n in [n_count], from ``math.comb``, as uint64."""
    return np.array([math.comb(n, m) % 2**64 for n in range(n_count)], dtype=np.uint64)


def exact_term_turns(coeff: float, m: Sequence[int], N: Sequence[int]) -> np.ndarray:
    """The turns of ``coeff * C(n, m)`` over the window [N], as int64, from
    exact integer arithmetic.

    The fraction c = coeff - round(coeff) (+1/2 read as -1/2) is k turns,
    k = trunc(c * 2^64), plus a remainder r below one turn.  The turns are
    k * C(n, m) modulo 2^64 plus, where r is nonzero, r * C(n, m) taken
    modulo one cycle into [-1/2, 1/2) and truncated to turns, each in
    Python integers.
    """
    c = Fraction(coeff) - round(Fraction(coeff))
    if c == Fraction(1, 2):
        c = -c
    k = int(c * 2**64)
    r = c * 2**64 - k
    field = tensor_field([comb_axis_mod(Nd, md) for Nd, md in zip(N, m)])
    out = np.broadcast_to(np.uint64(k % 2**64) * field, tuple(N)).copy()
    if r:
        p, q = r.numerator, r.denominator  # q is a power of two
        for n in np.ndindex(*N):
            t = p * math.prod(math.comb(nd, md) for nd, md in zip(n, m)) % (2**64 * q)
            t = t - 2**64 * q if t >= 2**63 * q else t
            out[n] = (int(out[n]) + abs(t) // q * (1 if t >= 0 else -1)) % 2**64
    return out.view(np.int64)


def exact_signal(values: Sequence[float], M: DegreeSet, N: Sequence[int]) -> np.ndarray:
    """The unit signal of the binomial coefficients ``values`` of ``M`` over
    the window [N], with its phase summed exactly: each coefficient is an
    integer k of turns of 2^-64 cycle (a float64 of magnitude 2^-12 or more
    is), the phase is sum_m k_m * C(n, m) modulo 2^64 from
    :func:`comb_axis_mod`, and only the float64 ``exp`` rounds it."""
    phase = np.zeros(tuple(N), np.uint64)
    for b, m in zip(values, M.degrees):
        k = Fraction(float(b)) * 2**64
        if k.denominator != 1:
            raise ValueError(f"coefficient {b!r} is not a whole number of turns")
        field = tensor_field([comb_axis_mod(Nd, md) for Nd, md in zip(N, m)])
        phase += np.uint64(int(k) % 2**64) * field
    return np.exp(1j * TWO_PI * _TURN * phase.view(np.int64))


def reference_sequential(data: np.ndarray, cfg):
    """The sequential loop one (degree, lag) stage at a time, in int64 turns,
    every stage over the whole window, cancelling binomial fields.

    Every stage but the last subtracts the turns of its own increment times
    C(n, m) over the full window, from exact integer arithmetic
    (:func:`exact_term_turns`), so each lag of a degree differences the
    turns left by the lag before it.  The kernel cancels each degree once,
    over the axes it touches, and cancels the lag passes by a scalar.  Under
    one lag the two agree bit for bit, unless an increment's fraction of a
    cycle is below 2^-12, whose sub-turn remainder the kernel rounds in
    float64.  Like the kernel, it takes one
    ``arctan2`` per sample at entry and averages with the per-axis weights.
    Returns the coefficients and increments.
    """
    if not np.isfinite(data).all():
        raise ValueError("signal has non-finite samples")
    M = cfg.degree_set
    N = data.shape[1:]
    diff_window(N, M.max_degree, cfg.lags[-1])
    turns = _phase_turns(data.real, data.imag).astype(np.int64)
    stages = [(m, tau) for m in reversed(M.degrees) for tau in cfg.lags]
    values = np.zeros((len(data), len(M)))
    diagnostics = {}
    for i, (m, tau) in enumerate(stages):
        tau_pow = math.prod(td**md for td, md in zip(tau, m))
        mean = whole_field_stage(cfg.averaging, turns, m, tau, None, weight_axes(m, tau, N))
        delta = mean / tau_pow
        values[:, M.position(m)] += delta
        diagnostics[(m, tau)] = delta
        if i < len(stages) - 1:
            turns = turns - np.stack([exact_term_turns(d, m, N) for d in delta])
    return values, diagnostics


def traced_peak(fn, *args) -> int:
    """The peak bytes that ``tracemalloc`` traces over one call of ``fn``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_retained(fn, *args) -> int:
    """The bytes that ``tracemalloc`` still traces after one call of ``fn``
    and a garbage collection: what the call left cached."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports ppsg from this checkout
    and this module as ``oracles``."""
    tests = Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    path = os.pathsep.join(filter(None, [src, str(tests), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
