import io
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ppsg import harness
from ppsg.analysis import fisher_matrix, reconstruction_bound
from ppsg.basis import BINOMIAL, CoefficientVector, wrap_to_cell
from ppsg.degrees import build_total_order
from ppsg.estimator import _TURN, AveragingKind, Estimate, EstimatorConfig, _phase_turns
from ppsg.harness import (
    PARAMETER_MODES,
    ExperimentConfig,
    run_sweep,
    run_trial,
    snr_db_to_linear,
)
from ppsg.signal import Signal, add_noise, complex_noise

from oracles import principal_arg, reference_sweep, reference_trial, run_python, tr_kj


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


M01 = build_total_order([(0,), (1,)])
M012 = build_total_order([(0,), (1,), (2,)])
M2D = build_total_order([(0, 0), (0, 1), (1, 0), (1, 1)])
M02 = build_total_order([(0,), (2,)])


def _config(**overrides):
    defaults = dict(
        degree_set=M01,
        window=(64,),
        snr_db_grid=(10.0,),
        trials=4,
        parameter_mode="uniform_cell",
        estimator_config=EstimatorConfig(M01),
        master_seed=42,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_snr_conversion():
    assert snr_db_to_linear(0.0) == 1.0
    assert snr_db_to_linear(30.0) == pytest.approx(1000.0)
    for snr_db in (3100.0, -3100.0, math.nan):  # 1/SNR overflows at -3100 dB
        with pytest.raises(ValueError, match="dB is not a finite, positive SNR"):
            snr_db_to_linear(snr_db)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError):
        _config(snr_db_grid=())
    with pytest.raises(ValueError):
        _config(parameter_mode="other")
    with pytest.raises(ValueError):
        _config(parameter_mode="fixed")  # missing coefficients
    with pytest.raises(ValueError):
        _config(parameter_mode="fixed", fixed_coefficients=(0.1,))
    with pytest.raises(ValueError):
        _config(estimator_config=EstimatorConfig(build_total_order([(0,)])))


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"snr_db_grid": (math.nan,)}, "snr_db_grid"),
        ({"snr_db_grid": (10.0, math.inf)}, "snr_db_grid"),
        ({"snr_db_grid": (-math.inf,)}, "snr_db_grid"),
        ({"snr_db_grid": (1e308,)}, "snr_db_grid"),
        ({"snr_db_grid": (-1e308,)}, "snr_db_grid"),
        ({"parameter_mode": "fixed", "fixed_coefficients": (math.nan, 0.1)}, "fixed_coef"),
        ({"parameter_mode": "fixed", "fixed_coefficients": (0.1, -math.inf)}, "fixed_coef"),
    ],
    ids=["nan-db", "inf-db", "minus-inf-db", "huge-db", "minus-huge-db", "nan-coef", "inf-coef"],
)
def test_config_rejects_non_finite_numbers(overrides, field):
    with pytest.raises(ValueError, match=field):
        _config(**overrides)


def test_nan_snr_is_rejected():
    with pytest.raises(ValueError, match="snr must be positive"):
        add_noise(Signal((8,), np.ones(8, dtype=complex)), math.nan, np.random.default_rng(0))
    with pytest.raises(ValueError, match="snr must be positive"):
        reconstruction_bound(M01, math.nan)
    with pytest.raises(ValueError, match="snr must be positive"):
        run_trial(_config(), math.nan, 0)


@pytest.mark.parametrize("snr", [math.inf, 1e-320, 5e-324, math.nan, 0.0, -1.0])
def test_every_linear_snr_meets_one_rule(snr):
    # An SNR and its inverse must be finite and positive wherever the
    # library takes one: reconstruction_bound returned 0.0 at inf and inf at
    # 1e-320, and complex_noise drew +-inf samples at 1e-320.
    with pytest.raises(ValueError, match="snr must be positive"):
        reconstruction_bound(M01, snr)
    with pytest.raises(ValueError, match="snr must be positive"):
        complex_noise((4,), snr, np.random.default_rng(0))
    with pytest.raises(ValueError, match="is not a finite, positive SNR"):
        fisher_matrix(M01, (8,), snr)
    if not snr <= 0.0:  # 0 and -1 have no dB value
        with pytest.raises(ValueError, match="dB is not a finite, positive SNR"):
            snr_db_to_linear(10.0 * math.log10(snr))


def test_config_rejects_what_the_first_trial_would():
    M012 = build_total_order([(0,), (1,), (2,)])
    with pytest.raises(ValueError, match="window"):
        _config(degree_set=M012, window=(2,), estimator_config=EstimatorConfig(M012))
    lagged = EstimatorConfig(M012, lags=((1,), (2,)))
    with pytest.raises(ValueError, match="window"):
        _config(degree_set=M012, window=(4,), estimator_config=lagged)
    _config(degree_set=M012, window=(5,), estimator_config=lagged)
    M02 = build_total_order([(0,), (2,)])
    with pytest.raises(ValueError, match="unit lag"):
        _config(degree_set=M02, estimator_config=EstimatorConfig(M02, lags=((1,), (2,))))
    _config(degree_set=M02, estimator_config=EstimatorConfig(M02))


def test_trial_noiseless_limit():
    out = run_trial(_config(), 1e12, trial_index=0)
    assert out.reconstruction_error < 1e-6
    assert not out.wrapped


def test_trial_deterministic():
    cfg = _config()
    a = run_trial(cfg, 100.0, trial_index=3, snr_index=0)
    b = run_trial(cfg, 100.0, trial_index=3, snr_index=0)
    assert a.reconstruction_error == b.reconstruction_error
    assert np.array_equal(
        a.estimate.binomial.values, b.estimate.binomial.values
    )
    assert a.wrapped == b.wrapped


def test_trial_zero_mode_error_is_finite():
    cfg = _config(parameter_mode="zero")
    out = run_trial(cfg, snr_db_to_linear(10.0), trial_index=0)
    assert out.reconstruction_error >= 0.0
    assert math.isfinite(out.reconstruction_error)
    assert np.array_equal(out.coefficients.values, [0.0, 0.0])


def test_sweep_reproducible_and_serial_parallel_equal(monkeypatch):
    # Every trial seeds its own generator, so a sweep batched many trials
    # to a chunk gives the records of one run a trial at a time.
    cfg = _config(trials=12, snr_db_grid=(5.0, 15.0))
    batched = run_sweep(cfg)
    again = run_sweep(cfg)
    monkeypatch.setattr(harness, "_CHUNK_SAMPLES", 1)
    serial = run_sweep(cfg)
    assert batched == again
    assert batched.records == serial.records


def test_sweep_single_trial_stderr_is_nan():
    cfg = _config(trials=1)
    rec = run_sweep(cfg).records[0]
    assert math.isnan(rec.mse_stderr)


def test_sweep_crb_bound_column():
    cfg = _config(trials=2, snr_db_grid=(0.0, 10.0, 20.0))
    result = run_sweep(cfg)
    for rec in result.records:
        snr = snr_db_to_linear(rec.snr_db)
        assert rec.crb_bound == pytest.approx(len(M01) / (2 * snr))


def test_sweep_conditional_decomposition():
    # law of total expectation: mean = p * wrap + (1 - p) * nowrap
    cfg = _config(trials=600, snr_db_grid=(3.0,), parameter_mode="zero", master_seed=7)
    rec = run_sweep(cfg).records[0]
    assert 0.0 < rec.wrap_probability < 1.0
    combined = (
        rec.wrap_probability * rec.mse_given_wrap
        + (1.0 - rec.wrap_probability) * rec.mse_given_nowrap
    )
    assert combined == pytest.approx(rec.mse_mean, rel=1e-12)


def test_sweep_csv_shape():
    cfg = _config(trials=2, snr_db_grid=(0.0, 5.0))
    result = run_sweep(cfg)
    buf = io.StringIO()
    result.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "snr_db,mse_mean,mse_stderr,wrap_prob,mse_wrap,mse_nowrap,crb_bound"
    assert len(lines) == 3


def test_error_distribution_parameter_invariant_ks():
    # Circular averaging: the reconstruction error distribution does not
    # depend on the true parameter.  Compare b = 0 against a fixed nonzero b
    # with common random numbers; distributions must be indistinguishable.
    trials = 1000
    snr = snr_db_to_linear(5.0)
    base = _config(parameter_mode="zero", trials=trials, snr_db_grid=(5.0,))
    moved = _config(
        parameter_mode="fixed",
        fixed_coefficients=(0.21, -0.37),
        trials=trials,
        snr_db_grid=(5.0,),
    )
    errs_zero = np.array(
        [run_trial(base, snr, t).reconstruction_error for t in range(trials)]
    )
    errs_b = np.array(
        [run_trial(moved, snr, t).reconstruction_error for t in range(trials)]
    )
    assert ks_2samp(errs_zero, errs_b).pvalue > 0.01


def test_empirical_covariance_basics():
    b_true = CoefficientVector(np.array([0.1, 0.2]), BINOMIAL, M01)
    cfg = _config(
        parameter_mode="fixed", fixed_coefficients=(0.1, 0.2), trials=1
    )
    fixed = [run_trial(cfg, 50.0, t) for t in range(60)]
    estimates = [r.estimate for r in fixed]
    K = empirical_covariance(estimates, b_true)
    assert K.shape == (2, 2)
    assert np.allclose(K, K.T)
    assert np.all(np.linalg.eigvalsh(K) >= -1e-15)
    same = empirical_covariance([estimates[0], estimates[0]], b_true)
    assert np.allclose(same, 0.0)
    with pytest.raises(ValueError):
        empirical_covariance(estimates[:1], b_true)


def test_covariance_tracks_crb_at_high_snr():
    b = (0.05, 0.33)
    cfg = _config(
        parameter_mode="fixed", fixed_coefficients=b, trials=1, master_seed=3
    )
    snr = snr_db_to_linear(30.0)
    results = [run_trial(cfg, snr, t) for t in range(800)]
    K = empirical_covariance(
        [r.estimate for r in results],
        CoefficientVector(np.array(b), BINOMIAL, M01),
    )
    J = fisher_matrix(M01, (64,), snr)
    assert 2.0 <= tr_kj(K, J) <= 2.4


def _csv(result):
    buf = io.StringIO()
    result.write_csv(buf)
    return buf.getvalue()


# Trials per chunk at the default 64-sample window.
_PER_CHUNK = harness._CHUNK_SAMPLES // 64


@pytest.mark.parametrize(
    "overrides",
    [
        *[dict(estimator_config=EstimatorConfig(M01, kind)) for kind in AveragingKind],
        dict(
            degree_set=M012,
            window=(24,),
            estimator_config=EstimatorConfig(M012, lags=((1,), (2,), (4,))),
        ),
        dict(degree_set=M2D, window=(8, 9), estimator_config=EstimatorConfig(M2D)),
        dict(
            degree_set=M02,
            window=(12,),
            estimator_config=EstimatorConfig(M02),
        ),
        dict(parameter_mode="fixed", fixed_coefficients=(0.21, -0.37)),
        dict(parameter_mode="zero"),
        dict(parameter_mode="zero", trials=2 * _PER_CHUNK + 3, snr_db_grid=(3.0,)),
    ],
    ids=[
        *[kind.value for kind in AveragingKind],
        "multilag",
        "2d",
        "general-non-closed",
        "fixed",
        "zero",
        "chunks-and-remainder",
    ],
)
def test_sweep_matches_per_trial_reference(overrides):
    cfg = _config(**{"trials": 40, "snr_db_grid": (0.0, 8.0), **overrides})
    assert _csv(run_sweep(cfg)) == _csv(reference_sweep(cfg))


def test_run_trial_is_a_row_of_the_batch():
    cfg = _config(degree_set=M012, window=(20,), estimator_config=EstimatorConfig(M012))
    snr = snr_db_to_linear(4.0)
    trials = range(3, 12)
    truths, values, diagnostics, errors, wrapped = harness._run_chunk(cfg, snr, 1, trials)
    for row, t in enumerate(trials):
        for one in (run_trial(cfg, snr, t, snr_index=1), reference_trial(cfg, snr, t, 1)):
            assert one.reconstruction_error == errors[row]
            assert one.wrapped == wrapped[row]
            assert one.estimate.binomial.values.tobytes() == values[row].tobytes()
            assert one.estimate.diagnostics == {k: d[row] for k, d in diagnostics.items()}
            assert one.coefficients.values.tobytes() == truths[row].tobytes()


@pytest.mark.parametrize(
    "M, N",
    [
        (build_total_order([(0,), (1,), (2,), (3,)]), (4096,)),
        (build_total_order([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]), (16, 12)),
    ],
    ids=["4096 degrees 0-3", "16x12 total degree 2"],
)
def test_trial_scores_match_a_fraction_oracle(M, N):
    # Each trial scores sum_n |e^{j2pi xhat} - e^{j2pi x}|^2 = 4 sum_n
    # sin^2(pi d(n)), d the phase of the coefficient error: here summed in
    # Fraction arithmetic, reduced to [-1/2, 1/2) and only then rounded.
    # Two float64 reconstructions missed it by 3e-6 to 4e-5 relative at 4096.
    cfg = _config(degree_set=M, window=N, estimator_config=EstimatorConfig(M))
    truths, values, _, errors, _ = harness._run_chunk(cfg, snr_db_to_linear(20.0), 0, range(3))
    for truth, value, error in zip(truths, values, errors):
        coeffs = [Fraction(float(v)) - Fraction(float(t)) for v, t in zip(value, truth)]
        terms = []
        for n in itertools.product(*map(range, N)):
            d = sum(c * math.prod(map(math.comb, n, m)) for c, m in zip(coeffs, M.degrees))
            terms.append(math.sin(math.pi * float(d - math.floor(d + Fraction(1, 2)))) ** 2)
        assert error == pytest.approx(4 * math.fsum(terms), rel=1e-12)


# Ranges that start at 0, end at 2**32 - 1, and straddle 2**32 and 2**64, so
# that keys of different lengths (under a two-word master seed, of 4 and of
# 5 words) meet in one chunk.
_TRIAL_RANGES = (
    range(0, 5),
    range(2**32 - 4, 2**32),
    range(2**32 - 2, 2**32 + 3),
    range(2**64 - 2, 2**64 + 2),
)


@pytest.mark.parametrize("mode", PARAMETER_MODES)
@pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
def test_chunk_draws_match_default_rng(master_seed, mode):
    # The chunk path re-implements numpy's SeedSequence hashing and PCG64
    # seeding; a change to either in numpy fails here.
    fixed = (0.21, -0.37) if mode == "fixed" else None
    cfg = _config(
        window=(5,), parameter_mode=mode, fixed_coefficients=fixed, master_seed=master_seed
    )
    snr = snr_db_to_linear(3.0)
    for snr_index in (0, 2):
        for trials in _TRIAL_RANGES:
            truths, noise = harness._draw_chunk(cfg, snr, snr_index, trials)
            for row, t in enumerate(trials):
                rng = np.random.default_rng(np.random.SeedSequence([master_seed, snr_index, t]))
                if mode == "uniform_cell":
                    truth = rng.uniform(-0.5, 0.5, 2)
                else:
                    truth = np.array(fixed or (0.0, 0.0))
                assert truths[row].tobytes() == truth.tobytes()
                assert noise[row].tobytes() == complex_noise(cfg.window, snr, rng).tobytes()


def test_wrap_increments_are_the_principal_argument():
    # The wrap flags read the phase noise of 1 + z through the kernel's
    # _phase_turns, in cycles: principal_arg / 2pi bit for bit wherever it
    # is zero or normal.  Below 2^-1022 the two round a subnormal in two
    # steps and in one, a last-bit gap far below any cell edge.
    rng = np.random.default_rng(24)
    n = 10**5
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-8, 8, n)
    parts = (0.0, -0.0, -1.0, -2.0, 5e-324, 1e-310, -1e-300, 1e300)
    edge = np.array([complex(a, b) for a in parts for b in parts])
    w = 1.0 + np.concatenate([z, edge, -1.0 + edge])
    got = _phase_turns(w.real, w.imag) * _TURN
    want = principal_arg(w) / (2 * np.pi)
    normal = (want == 0) | (np.abs(want) >= 2.0**-1022)
    assert got[normal].tobytes() == want[normal].tobytes()
    assert np.all(np.abs(got - want) <= 2.0**-1074)


@pytest.mark.parametrize("trial_index", [2**32 - 1, 2**32])
def test_run_trial_matches_reference_at_word_boundaries(trial_index):
    cfg = _config(degree_set=M012, window=(20,), estimator_config=EstimatorConfig(M012))
    snr = snr_db_to_linear(4.0)
    one, ref = run_trial(cfg, snr, trial_index), reference_trial(cfg, snr, trial_index)
    assert one.reconstruction_error == ref.reconstruction_error
    assert one.wrapped == ref.wrapped
    assert one.estimate.binomial.values.tobytes() == ref.estimate.binomial.values.tobytes()
    assert one.estimate.diagnostics == ref.estimate.diagnostics
    assert one.coefficients.values.tobytes() == ref.coefficients.values.tobytes()


def test_run_trial_rejects_a_negative_index():
    cfg = _config()
    with pytest.raises(ValueError, match="seed entries must be non-negative, got -1"):
        run_trial(cfg, 10.0, 0, snr_index=-1)
    with pytest.raises(ValueError, match="trial indices must be non-negative, got -2"):
        run_trial(cfg, 10.0, -2)


@pytest.mark.parametrize("master_seed", [-1, 2**64])
def test_master_seed_must_fit_in_64_unsigned_bits(master_seed):
    with pytest.raises(ValueError, match="master_seed must fit in 64 unsigned bits"):
        _config(master_seed=master_seed)


def test_import_and_plain_sweep_load_no_scipy():
    # The package imports no scipy anywhere; neither the import nor a plain
    # sweep may load it.
    code = """
import sys
import ppsg

loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(loaded())
M = ppsg.build_total_order([(0,), (1,)])
cfg = ppsg.ExperimentConfig(
    degree_set=M,
    window=(64,),
    snr_db_grid=(0.0, 5.0, 10.0),
    trials=100,
    parameter_mode="zero",
    estimator_config=ppsg.EstimatorConfig(M),
    master_seed=1,
)
ppsg.run_sweep(cfg, workers=1)
print(loaded())
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]
