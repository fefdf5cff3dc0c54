"""Reproducible Monte-Carlo experiments: trial generation, reconstruction-MSE
estimation, wrap segregation, and sweep aggregation.

Every trial derives its generator from (master_seed, snr_index, trial_index),
so results are independent of execution order.  Wrapping detection follows
the ground-truth segregation methodology: the noise realization is
synthesized explicitly and the outlier predicate is evaluated on the true
multiplicative phase noise, not on estimates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .analysis import outlier_predicate, reconstruction_bound
from .basis import BINOMIAL, CoefficientVector, phase_field, wrap_to_cell
from .degrees import DegreeSet, diff_window
from .estimator import Estimate, EstimatorConfig, estimate
from .signal import (
    RealField,
    Signal,
    complex_noise,
    finite_difference,
    principal_arg,
    synthesize,
)

PARAMETER_MODES = ("fixed", "uniform_cell", "zero")


def snr_db_to_linear(snr_db: float) -> float:
    """dB to linear: 10^(snr_db / 10)."""
    return 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class ExperimentConfig:
    degree_set: DegreeSet
    window: tuple[int, ...]
    snr_db_grid: tuple[float, ...]
    trials: int
    parameter_mode: str
    estimator_config: EstimatorConfig
    master_seed: int = 0
    fixed_coefficients: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", tuple(int(v) for v in self.window))
        object.__setattr__(
            self, "snr_db_grid", tuple(float(v) for v in self.snr_db_grid)
        )
        if not self.snr_db_grid:
            raise ValueError("snr grid must be nonempty")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.parameter_mode not in PARAMETER_MODES:
            raise ValueError(
                f"parameter_mode must be one of {PARAMETER_MODES}, "
                f"got {self.parameter_mode!r}"
            )
        if self.parameter_mode == "fixed":
            if self.fixed_coefficients is None:
                raise ValueError("fixed parameter mode requires fixed_coefficients")
            coeffs = tuple(float(v) for v in self.fixed_coefficients)
            if len(coeffs) != len(self.degree_set):
                raise ValueError(
                    f"expected {len(self.degree_set)} fixed coefficients, got {len(coeffs)}"
                )
            object.__setattr__(self, "fixed_coefficients", coeffs)
        if self.master_seed < 0 or self.master_seed >= 2**64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        M, est = self.degree_set, self.estimator_config
        if est.degree_set != M:
            raise ValueError("estimator_config degree set differs from experiment's")
        if not (M.is_downward_closed() or (est.general_degree_handling and est.single_unit_lag)):
            raise ValueError("non-closed degrees need general_degree_handling and a unit lag")
        diff_window(self.window, M.max_degree, est.lags[-1])


@dataclass(frozen=True)
class TrialResult:
    reconstruction_error: float
    wrapped: bool
    estimate: Estimate
    coefficients: CoefficientVector  # the drawn ground truth


@dataclass(frozen=True)
class SweepRecord:
    snr_db: float
    mse_mean: float
    mse_stderr: float
    wrap_probability: float
    mse_given_wrap: float
    mse_given_nowrap: float
    crb_bound: float


@dataclass(frozen=True)
class ExperimentResult:
    records: tuple[SweepRecord, ...]
    config: ExperimentConfig

    CSV_COLUMNS = (
        "snr_db",
        "mse_mean",
        "mse_stderr",
        "wrap_prob",
        "mse_wrap",
        "mse_nowrap",
        "crb_bound",
    )

    def write_csv(self, fh: IO[str]) -> None:
        writer = csv.writer(fh)
        writer.writerow(self.CSV_COLUMNS)
        for r in self.records:
            writer.writerow(
                [
                    repr(r.snr_db),
                    repr(r.mse_mean),
                    repr(r.mse_stderr),
                    repr(r.wrap_probability),
                    repr(r.mse_given_wrap),
                    repr(r.mse_given_nowrap),
                    repr(r.crb_bound),
                ]
            )


def _trial_rng(cfg: ExperimentConfig, snr_index: int, trial_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence([cfg.master_seed, int(snr_index), int(trial_index)])
    return np.random.default_rng(seq)


def _draw_coefficients(cfg: ExperimentConfig, rng: np.random.Generator) -> CoefficientVector:
    size = len(cfg.degree_set)
    if cfg.parameter_mode == "zero":
        values = np.zeros(size)
    elif cfg.parameter_mode == "fixed":
        values = np.asarray(cfg.fixed_coefficients, dtype=float)
    else:
        values = rng.uniform(-0.5, 0.5, size)
    return CoefficientVector(values, BINOMIAL, cfg.degree_set)


def run_trial(
    cfg: ExperimentConfig, snr: float, trial_index: int, snr_index: int = 0
) -> TrialResult:
    """One seeded trial at a linear SNR.

    Draws the ground truth, synthesizes, adds noise, estimates, and returns
    the signal reconstruction error sum_n |e^{j2pi xhat} - e^{j2pi x}|^2
    together with the ground-truth wrap flag.
    """
    rng = _trial_rng(cfg, snr_index, trial_index)
    b_true = _draw_coefficients(cfg, rng)
    clean = synthesize(b_true, cfg.window)
    noise = complex_noise(cfg.window, snr, rng)
    observed = Signal(cfg.window, clean.data + noise)
    est = estimate(observed, cfg.estimator_config)
    recon = np.exp(2j * np.pi * phase_field(est.binomial, cfg.window))
    error = float(np.sum(np.abs(recon - clean.data) ** 2))
    wrapped = _wrap_event(cfg.degree_set, cfg.window, b_true, clean, noise)
    return TrialResult(error, wrapped, est, b_true)


def _wrap_event(
    M: DegreeSet,
    window: tuple[int, ...],
    b_true: CoefficientVector,
    clean: Signal,
    noise: np.ndarray,
) -> bool:
    """Ground-truth phase-wrapping flag.

    The multiplicative phase noise arg(1 + conj(s) w)/2pi is differenced per
    degree; a wrap is any degree whose accumulated argument leaves the cell.
    """
    rotated = np.conj(clean.data) * noise
    increments = RealField(window, principal_arg(1.0 + rotated) / (2.0 * np.pi))
    for k in M.degrees:
        diffed = finite_difference(increments, k)
        if outlier_predicate(diffed, b_true[k]):
            return True
    return False


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run the full SNR grid, one trial after another.

    ``workers`` is accepted for compatibility and has no effect: trials run
    in the calling thread, and each seeds its own generator.
    """
    records = []
    for snr_index, snr_db in enumerate(cfg.snr_db_grid):
        snr = snr_db_to_linear(snr_db)
        results = [run_trial(cfg, snr, t, snr_index) for t in range(cfg.trials)]
        records.append(_aggregate(snr_db, snr, cfg, results))
    return ExperimentResult(tuple(records), cfg)


def _aggregate(
    snr_db: float, snr: float, cfg: ExperimentConfig, results: Sequence[TrialResult]
) -> SweepRecord:
    errors = np.array([r.reconstruction_error for r in results])
    wrapped = np.array([r.wrapped for r in results], dtype=bool)
    mean = float(errors.mean())
    stderr = (
        float(errors.std(ddof=1) / math.sqrt(len(errors)))
        if len(errors) > 1
        else float("nan")
    )
    p_wrap = float(wrapped.mean())
    mse_wrap = float(errors[wrapped].mean()) if wrapped.any() else float("nan")
    mse_nowrap = float(errors[~wrapped].mean()) if (~wrapped).any() else float("nan")
    return SweepRecord(
        snr_db=snr_db,
        mse_mean=mean,
        mse_stderr=stderr,
        wrap_probability=p_wrap,
        mse_given_wrap=mse_wrap,
        mse_given_nowrap=mse_nowrap,
        crb_bound=reconstruction_bound(cfg.degree_set, snr),
    )


def empirical_covariance(
    estimates: Sequence[Estimate], b_true: CoefficientVector
) -> np.ndarray:
    """Sample covariance of the cell-wrapped estimation errors.

    Pairs with tr(KJ) for CRB-attainment checks.
    """
    if len(estimates) < 2:
        raise ValueError(f"need at least 2 estimates, got {len(estimates)}")
    diffs = np.vstack(
        [wrap_to_cell(e.binomial.values - b_true.values) for e in estimates]
    )
    centered = diffs - diffs.mean(axis=0)
    return (centered.T @ centered) / (len(estimates) - 1)
