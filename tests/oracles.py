"""Reference implementations and helpers that only the tests use."""

import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from ppsg.analysis import outlier_predicate
from ppsg.basis import BINOMIAL, CoefficientVector, phase_field
from ppsg.degrees import as_index, binom, diff_window, multi_binom
from ppsg.estimator import (
    TWO_PI,
    _average,
    _project,
    _require_estimable,
    _rotation,
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
    _conj_product,
    _difference,
    complex_noise,
    finite_difference,
    principal_arg,
    synthesize,
)
from ppsg.weights import WeightField, weight_axes


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


def reference_sequential(data: np.ndarray, cfg, basis_field):
    """The sequential loop one (degree, lag) stage at a time.

    Every stage but the last cancels its own increment times
    ``basis_field(m, N)`` over the full window, so each lag of a degree
    differences the observations left by the lag before it.  The kernel
    cancels each degree once and rotates the lag passes by a scalar; the
    two agree to rounding.  Like the kernel, it projects the batch once at
    entry and averages with the per-axis weights.  Returns the coefficients
    and increments.
    """
    _require_estimable(cfg, data)
    data = _project(cfg.averaging, data)
    M = cfg.degree_set
    N = data.shape[1:]
    lead = (-1,) + (1,) * len(N)
    stages = [(m, tau) for m in reversed(M.degrees) for tau in cfg.lags]
    values = np.zeros((len(data), len(M)))
    diagnostics = {}
    for i, (m, tau) in enumerate(stages):
        diffed = _difference(data, m, tau, _conj_product)
        mean = _average(cfg.averaging, diffed, weight_axes(m, tau, N))
        tau_pow = math.prod(td**md for td, md in zip(tau, m))
        delta = principal_arg(mean) / (TWO_PI * tau_pow)
        values[:, M.position(m)] += delta
        diagnostics[(m, tau)] = delta
        moved = delta != 0.0
        if moved.any() and i < len(stages) - 1:
            rot = _rotation(delta[moved].reshape(lead) * basis_field(m, N))
            data = data.copy()
            data[moved] *= rot
    return values, diagnostics


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports ppsg from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
