"""Reproducible Monte-Carlo experiments: trial generation, reconstruction-MSE
estimation, wrap segregation, and sweep aggregation.

Every trial derives its generator from (master_seed, snr_index, trial_index),
so results are independent of execution order and of how trials are
grouped.  Trials run in batches: each SNR point is cut into chunks of at
most ``_CHUNK_SAMPLES`` samples.  A chunk seeds all its trials in one pass
(``SeedSequence`` hashing in ``uint32`` arrays, each stream the one
``default_rng`` would give), draws every trial's noise into one buffer, and
is synthesized and scored in the exact turns the estimator cancels in
(:func:`~ppsg.basis.phase_turns`) around one kernel call.  Every trial's
numbers are bit for bit those of the trial run alone (:func:`run_trial`).
Wrapping detection follows the ground-truth segregation methodology: the noise
realization is synthesized explicitly and the outlier predicate is
evaluated on the true multiplicative phase noise, not on estimates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass
from typing import IO

import numpy as np

from .analysis import reconstruction_bound
from .basis import _TURN, BINOMIAL, CoefficientVector, phase_turns
from .degrees import DegreeSet, as_index, as_int, diff_window
from .estimator import Estimate, EstimatorConfig, _phase_turns, estimate_batch
from .signal import _difference, _form_noise

# Not called: benchmarks/spans.py rebinds these names to time the layers of
# the former per-trial path, and records a missing name as an absent hook.
from .analysis import outlier_predicate  # noqa: F401
from .basis import phase_field  # noqa: F401
from .estimator import estimate  # noqa: F401
from .signal import synthesize  # noqa: F401

PARAMETER_MODES = ("fixed", "uniform_cell", "zero")

# A chunk holds at most this many samples (and at least one trial).  It
# bounds a sweep's memory.
_CHUNK_SAMPLES = 1 << 13


def snr_db_to_linear(snr_db: float) -> float:
    """dB to linear, 10^(snr_db / 10); ``ValueError`` unless it and 1/SNR are finite, > 0."""
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        snr = math.inf
    if not (0.0 < snr < math.inf and 1.0 / snr < math.inf):  # NaN fails too
        raise ValueError(f"{snr_db} dB is not a finite, positive SNR")
    return snr


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
        object.__setattr__(self, "window", as_index(self.window))
        for name in ("trials", "master_seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        object.__setattr__(self, "snr_db_grid", tuple(map(float, self.snr_db_grid)))
        if not self.snr_db_grid:
            raise ValueError("snr grid must be nonempty")
        for snr_db in self.snr_db_grid:
            try:
                snr_db_to_linear(snr_db)
            except ValueError as exc:
                raise ValueError(f"snr_db_grid: {exc}") from None
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
            if not all(map(math.isfinite, coeffs)):
                raise ValueError(f"fixed_coefficients must be finite, got {coeffs}")
            object.__setattr__(self, "fixed_coefficients", coeffs)
        elif self.fixed_coefficients is not None:
            raise ValueError(f"fixed_coefficients needs fixed mode, not {self.parameter_mode!r}")
        if self.master_seed < 0 or self.master_seed >= 2**64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        M, est = self.degree_set, self.estimator_config
        if est.degree_set != M:
            raise ValueError("estimator_config degree set differs from experiment's")
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
            writer.writerow([repr(v) for v in astuple(r)])


def _trial_rng(cfg: ExperimentConfig, snr_index: int, trial_index: int) -> np.random.Generator:
    """A trial's generator, defined one trial at a time; chunks reproduce its stream."""
    seq = np.random.SeedSequence([cfg.master_seed, int(snr_index), int(trial_index)])
    return np.random.default_rng(seq)


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words ``SeedSequence`` reads from an int, low word first; 0 is [0]."""
    if n < 0:
        raise ValueError(f"seed entries must be non-negative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(start: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of ``count`` steps and after the last, (count+1, 1)."""
    out = [start]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _trial_generators(master_seed: int, snr_index: int, trials: range):
    """One generator, set in turn to each trial's ``_trial_rng`` stream.

    Hashes the keys [master_seed, snr_index, t] of all of ``trials`` at once,
    as ``SeedSequence(key).generate_state(4, uint64)`` does one at a time,
    derives each PCG64 state in Python ints, and yields the same Generator
    for every trial with its state set.  Keys shorter than the pool act as
    zero-padded; the mixing of a longer key's extra words is masked per key,
    so one chunk may hold keys of several lengths.
    """
    prefix = _uint32_words(master_seed) + _uint32_words(snr_index)
    if trials.start < 0:
        raise ValueError(f"trial indices must be non-negative, got {trials.start}")
    t = np.arange(trials.start, trials.stop, dtype=np.uint64 if trials.stop <= 2**64 else object)
    t_words = len(_uint32_words(trials.stop - 1))
    key = np.zeros((max(4, len(prefix) + t_words), len(t)), dtype=np.uint32)
    key[: len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
    for j in range(t_words):
        key[len(prefix) + j] = (t >> 32 * j) & _MASK32
    lengths = len(prefix) + 1 + sum(t >= 1 << 32 * j for j in range(1, t_words))

    # Each hashmix takes the next constants: 4 calls fill the pool, 3 per
    # source word mix it all-pairs, and 4 per key word past the pool.
    extra = len(key) - 4
    a = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * extra)

    def hashmix(v: np.ndarray, k: int, count: int) -> np.ndarray:
        h = (v ^ a[k : k + count]) * a[k + 1 : k + count + 1]
        return h ^ (h >> 16)

    pool = hashmix(key[:4], 0, 4)
    for src in range(4):  # pool[src] is fixed while it mixes into the others
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], 4 + 3 * src, 3))
    for src in range(4, len(key)):
        mixed = _mix(pool, hashmix(key[src], 16 + 4 * (src - 4), 4))
        pool = np.where(lengths > src, mixed, pool)
    b = _hash_constants(_INIT_B, _MULT_B, 8)
    words = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ b[:8]) * b[1:]
    words ^= words >> 16

    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for w0, w1, w2, w3 in np.ascontiguousarray(words.T, dtype="<u4").view("<u8").tolist():
        inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
        state = ((inc + ((w0 << 64) | w1)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _draw_coefficients(cfg: ExperimentConfig, rng: np.random.Generator | None) -> np.ndarray:
    size = len(cfg.degree_set)
    if cfg.parameter_mode == "zero":
        return np.zeros(size)
    if cfg.parameter_mode == "fixed":
        return np.asarray(cfg.fixed_coefficients, dtype=float)
    return rng.uniform(-0.5, 0.5, size)


def _draw_chunk(cfg: ExperimentConfig, snr: float, snr_index: int, trials: range):
    """Ground truths (B, |M|) and complex noise (B, *N) of ``trials``.

    One generator pass: each trial's stream, seeded as by ``_trial_rng``,
    draws the ground truth, if its mode draws one, and then the real and the
    imaginary parts of the noise into one (B, 2, *N) buffer.  The noise is
    then formed over the whole chunk by the helper that ``complex_noise``
    forms its own (1, 2, *N) draw with, so every number is bit for bit the
    per-trial one.
    """
    drawn = cfg.parameter_mode == "uniform_cell"
    truths = np.empty((len(trials), len(cfg.degree_set)))
    if not drawn:
        truths[:] = _draw_coefficients(cfg, None)
    gauss = np.empty((len(trials), 2, *cfg.window))
    for row, rng in enumerate(_trial_generators(cfg.master_seed, snr_index, trials)):
        if drawn:
            truths[row] = _draw_coefficients(cfg, rng)
        rng.standard_normal(out=gauss[row])
    return truths, _form_noise(gauss, snr)


def _run_chunk(cfg: ExperimentConfig, snr: float, snr_index: int, trials: range):
    """Trials ``trials`` at a linear SNR, as one batch.

    The chunk's ground truths and noise come from one generator pass
    (:func:`_draw_chunk`), identical to the per-trial streams.  The batch
    is synthesized in exact turns, estimated in one kernel call, and scored:
    sum_n |e^{j2pi xhat} - e^{j2pi x}|^2 as 4 sum_n sin^2(pi d(n)), d the
    turns of ``values - truths`` (exact unless a trial wraps), and the wrap
    flag.  Returns (truths, estimates, diagnostics, errors, wrapped), each
    with the trial axis leading.
    """
    M, window = cfg.degree_set, cfg.window
    truths, noise = _draw_chunk(cfg, snr, snr_index, trials)
    clean = np.exp(2j * np.pi * _TURN * phase_turns(truths, M, window))
    values, diagnostics = estimate_batch(clean + noise, cfg.estimator_config)
    half_angle = np.sin(np.pi * _TURN * phase_turns(values - truths, M, window))
    errors = 4.0 * np.sum(half_angle**2, axis=tuple(range(1, clean.ndim)))
    wrapped = _wrap_event(M, truths, clean, noise)
    return truths, values, diagnostics, errors, wrapped


def run_trial(
    cfg: ExperimentConfig, snr: float, trial_index: int, snr_index: int = 0
) -> TrialResult:
    """One seeded trial at a linear SNR: the batch of one.

    Draws the ground truth, synthesizes, adds noise, estimates, and returns
    the signal reconstruction error sum_n |e^{j2pi xhat} - e^{j2pi x}|^2
    together with the ground-truth wrap flag.
    """
    trials = range(trial_index, trial_index + 1)
    truths, values, diagnostics, errors, wrapped = _run_chunk(cfg, snr, snr_index, trials)
    M = cfg.degree_set
    return TrialResult(
        float(errors[0]),
        bool(wrapped[0]),
        Estimate.from_batch(M, values, diagnostics),
        CoefficientVector(truths[0], BINOMIAL, M),
    )


def _wrap_event(
    M: DegreeSet, truths: np.ndarray, clean: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """Ground-truth phase-wrapping flags of a batch, shape (B,).

    The multiplicative phase noise arg(1 + conj(s) w)/2pi is differenced per
    degree; a trial wraps when, for any degree k, b_k plus an increment
    leaves the cell [-1/2, 1/2).
    """
    z = 1.0 + np.conj(clean) * noise
    increments = _phase_turns(z.real, z.imag) * _TURN
    axes = tuple(range(1, increments.ndim))
    lead = (-1,) + (1,) * len(axes)
    wrapped = np.zeros(len(truths), dtype=bool)
    for j, k in enumerate(M.degrees):
        v = truths[:, j].reshape(lead) + _difference(increments, k, (1,) * len(k), np.subtract)
        wrapped |= np.any((v < -0.5) | (v >= 0.5), axis=axes)
    return wrapped


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run the full SNR grid, each SNR point in chunks of trials.

    A chunk holds as many trials as fit in ``_CHUNK_SAMPLES`` samples (at
    least one) and runs as one batch; every trial seeds its own generator,
    so the records do not depend on the chunking.  ``workers`` is accepted
    for compatibility and has no effect: chunks run in the calling thread.
    """
    per_chunk = max(1, _CHUNK_SAMPLES // math.prod(cfg.window))
    records = []
    for snr_index, snr_db in enumerate(cfg.snr_db_grid):
        snr = snr_db_to_linear(snr_db)
        scores = [
            _run_chunk(cfg, snr, snr_index, range(t, min(t + per_chunk, cfg.trials)))[3:]
            for t in range(0, cfg.trials, per_chunk)
        ]
        errors, wrapped = map(np.concatenate, zip(*scores))
        records.append(_aggregate(snr_db, snr, cfg, errors, wrapped))
    return ExperimentResult(tuple(records), cfg)


def _aggregate(
    snr_db: float, snr: float, cfg: ExperimentConfig, errors: np.ndarray, wrapped: np.ndarray
) -> SweepRecord:
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
