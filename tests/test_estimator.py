import ast
import importlib
import importlib.util
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ppsg.basis as basis_module
import ppsg.estimator as estimator_module
import ppsg.weights as weights_module
from ppsg.analysis import crb, reconstruction_bound
from ppsg.basis import (
    BINOMIAL,
    MONOMIAL,
    CoefficientVector,
    _float_rows,
    binomial_field,
    binomial_to_monomial_matrix,
    compute_new_coordinate,
    phase_field,
    wrap_to_cell,
)
from ppsg.degrees import DegreeSet, build_total_order, downward_closure
from ppsg.estimator import (
    AveragingKind,
    Estimate,
    EstimatorConfig,
    average,
    estimate,
    estimate_batch,
    estimate_coefficients_direct,
)
from ppsg.signal import RealField, Signal, _difference, add_noise, synthesize
from ppsg.weights import WeightField, weight_axes, weight_multi, weight_prefixes

from oracles import (
    exact_inverse,
    exact_signal,
    exact_term_turns,
    integer_gram,
    parameter_invariance_witness,
    principal_arg,
    reference_sequential,
    run_python,
    traced_peak,
    traced_retained,
    whole_field_stage,
)

M01 = build_total_order([(0,), (1,)])
M012 = build_total_order([(0,), (1,), (2,)])
M2D = build_total_order([(0, 0), (0, 1), (1, 0), (1, 1)])

def _cv(values, M):
    return CoefficientVector(np.asarray(values, dtype=float), BINOMIAL, M)


def _noisy(b, N, snr, seed):
    rng = np.random.default_rng(seed)
    s = synthesize(b, N)
    scale = np.sqrt(0.5 / snr)
    w = scale * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    return Signal(N, s.data + w), s


def _uniform_weights(count):
    return WeightField((count,), np.full(count, 1.0 / count))


# -- Averaging operators -----------------------------------------------------


@pytest.mark.parametrize("kind", list(AveragingKind))
def test_average_constant_data(kind):
    theta = 2.4
    s = Signal((7,), np.full(7, np.exp(1j * theta)))
    u = weight_multi((0,), 1, (7,))
    out = average(kind, s, u)
    assert out == pytest.approx(np.exp(1j * theta), abs=1e-12)


def test_average_clock_example():
    # Three times clustered around the twelve: 11:20, 11:40, 00:30.  With the
    # branch cut sitting at twelve (six o'clock mapped to angle zero), the
    # linear average lands at 07:50 while the circular one stays at 11:50.
    times = np.array([11 + 20 / 60, 11 + 40 / 60, 0.5])
    samples = np.exp(2j * np.pi * (times - 6.0) / 12.0)
    s = Signal((3,), samples)
    u = _uniform_weights(3)

    def to_clock(z):
        return (np.angle(z) / (2 * np.pi) * 12.0 + 6.0) % 12.0

    circular = to_clock(average(AveragingKind.CIRCULAR, s, u))
    linear = to_clock(average(AveragingKind.LINEAR, s, u))
    assert circular == pytest.approx(11 + 50 / 60, abs=1e-9)
    assert linear == pytest.approx(7 + 50 / 60, abs=1e-9)


@pytest.mark.parametrize("kind", [AveragingKind.CIRCULAR])
def test_average_rotation_equivariance(kind):
    rng = np.random.default_rng(11)
    s = Signal((9,), rng.normal(size=9) + 1j * rng.normal(size=9))
    u = weight_multi((1,), 1, (10,))
    for phi in rng.uniform(0, 1, 5):
        rot = np.exp(2j * np.pi * phi)
        lhs = average(kind, Signal((9,), rot * s.data), u)
        rhs = rot * average(kind, s, u)
        assert abs(lhs - rhs) < 1e-9


def test_average_linear_not_equivariant():
    s = Signal((5,), np.exp(1j * np.array([3.0, 3.1, -3.1, 3.05, -3.0])))
    u = _uniform_weights(5)
    rot = np.exp(0.5j)
    lhs = average(AveragingKind.LINEAR, Signal((5,), rot * s.data), u)
    rhs = rot * average(AveragingKind.LINEAR, s, u)
    assert abs(lhs - rhs) > 1e-3


def test_average_window_mismatch():
    s = Signal((4,), np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        average(AveragingKind.CIRCULAR, s, _uniform_weights(5))


@pytest.mark.parametrize("bad", ["circular", "bogus", None])
def test_average_rejects_what_is_not_a_kind(bad):
    s = Signal((4,), np.ones(4, dtype=complex))
    with pytest.raises(ValueError, match="AveragingKind"):
        average(bad, s, _uniform_weights(4))


@pytest.mark.parametrize("kind", list(AveragingKind))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_average_rejects_a_non_finite_sample(kind, bad, part):
    # The samples enter as the estimator's do, so a non-finite one raises
    # rather than reading as -1/2 cycle and averaging to a unit complex.
    data = np.exp(2j * np.pi * np.linspace(0.0, 0.1, 9000))
    getattr(data, part)[4321] = bad
    with pytest.raises(ValueError, match="signal has non-finite samples"):
        average(kind, Signal((9000,), data), _uniform_weights(9000))


# -- Config validation ---------------------------------------------------------


def test_config_defaults_unit_lag():
    cfg = EstimatorConfig(M2D)
    assert cfg.lags == ((1, 1),)
    assert cfg.averaging is AveragingKind.CIRCULAR


def test_config_rejects_bad_lag_schedules():
    with pytest.raises(ValueError):
        EstimatorConfig(M01, lags=((2,),))  # first lag must be ones
    with pytest.raises(ValueError):
        EstimatorConfig(M01, lags=((1,), (1,)))  # not strictly ascending
    with pytest.raises(ValueError):
        EstimatorConfig(M2D, lags=((1, 1), (2, 1)))
    with pytest.raises(ValueError):
        EstimatorConfig(M01, lags=((1, 1),))  # wrong dimension


@pytest.mark.parametrize("bad", ["circular", "bogus", None, 3])
def test_config_rejects_averaging_that_is_not_a_kind(bad):
    with pytest.raises(ValueError, match="averaging"):
        EstimatorConfig(M01, bad)


# -- Plain sequential estimator --------------------------------------------------


@pytest.mark.parametrize("kind", list(AveragingKind))
def test_noise_free_recovery(kind):
    rng = np.random.default_rng(13)
    for M, N in ((M012, (16,)), (M2D, (6, 7))):
        b = _cv(rng.uniform(-0.45, 0.45, len(M)), M)
        s = synthesize(b, N)
        est = estimate(s, EstimatorConfig(M, averaging=kind))
        assert np.max(np.abs(est.binomial.values - b.values)) < 1e-9


M2D_TOTAL2 = build_total_order([(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)])


@pytest.mark.parametrize(
    "M, b, N",
    [
        (M012, (0.25, -0.375, 0.125), (2**16,)),
        (M012, (0.25, -0.375, 0.125), (2**20,)),
        (M2D_TOTAL2, (0.25, -0.375, 0.125, 0.0625, -0.1875, 0.3125), (512, 512)),
    ],
    ids=["1d-2^16", "1d-2^20", "2d-512x512"],
)
def test_noise_free_recovery_on_large_windows(M, b, N):
    # Dyadic b times integer C(n, m) is exact in float64, so the phase is
    # built without rounding and reduced to whole turns exactly.  The
    # cancellation must drop the whole turns of delta * C(n, m) before the
    # trig, or its rounding at ~1e12 rad shows up in the lower degrees.
    x = sum(bj * binomial_field(m, N) for bj, m in zip(b, M.degrees))
    y = Signal(N, np.exp(2j * np.pi * (x - np.rint(x))))
    est = estimate(y, EstimatorConfig(M))
    assert np.max(np.abs(est.binomial.values - np.array(b))) <= 1e-12


def test_all_ones_signal_gives_zero():
    M0 = build_total_order([(0,)])
    s = Signal((8,), np.ones(8, dtype=complex))
    est = estimate(s, EstimatorConfig(M0))
    assert est.binomial.values == pytest.approx([0.0])


@pytest.mark.parametrize("lags", [(), ((1,), (2,))])
@pytest.mark.parametrize("kind", list(AveragingKind))
def test_zero_and_one_rows_estimate_to_exactly_zero(kind, lags):
    # Every zero sample has phase 0, whatever the signs of its parts:
    # arctan2(-0.0, -0.0) alone would read -pi.
    rows = [np.full(16, complex(-0.0, -0.0)), np.full(16, complex(0.0, -0.0)), np.ones(16)]
    values, diagnostics = estimate_batch(np.stack(rows), EstimatorConfig(M012, kind, lags=lags))
    assert np.all(values == 0.0)
    assert all(np.all(delta == 0.0) for delta in diagnostics.values())


def test_estimator_window_guard():
    s = Signal((2,), np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        estimate(s, EstimatorConfig(M012))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_estimator_rejects_non_finite_samples(bad):
    data = np.ones(8, dtype=complex)
    data[3] = bad
    for cfg in (EstimatorConfig(M01), EstimatorConfig(M01, lags=((1,), (2,)))):
        with pytest.raises(ValueError, match="non-finite"):
            estimate(Signal((8,), data), cfg)


def test_estimate_cell_check_rejects_nan():
    with pytest.raises(ValueError):
        Estimate(_cv([0.0, np.nan], M01))


def test_variance_tracks_crb():
    # 1000 trials at 30 dB: empirical variance of the slope coefficient
    # within 15% of the CRB diagonal.
    N, snr, trials = (64,), 1000.0, 1000
    cfg = EstimatorConfig(M01)
    bound = crb(M01, N, snr)[1, 1]
    errors = []
    for t in range(trials):
        rng = np.random.default_rng(10_000 + t)
        b = _cv(rng.uniform(-0.5, 0.5, 2), M01)
        y, _ = _noisy(b, N, snr, 20_000 + t)
        est = estimate(y, cfg)
        errors.append(wrap_to_cell(est.binomial.values - b.values)[1])
    var = np.var(errors)
    assert abs(var - bound) < 0.15 * bound


def test_noisy_2e20_reconstruction_stays_near_bound():
    # Degrees 0-2 over 2^20 samples at 30 dB: the estimator's variance is set
    # by the second difference of the weights, so rounding noise in the
    # weights would lift the reconstruction MSE far above |M| / (2 SNR).
    N, snr = (1 << 20,), 1000.0
    cfg = EstimatorConfig(M012)
    ratios = []
    for i in range(4):
        rng = np.random.default_rng([17, i])
        b = _cv(rng.uniform(-0.5, 0.5, 3), M012)
        clean = synthesize(b, N)
        recon = synthesize(estimate(add_noise(clean, snr, rng), cfg).binomial, N)
        error = np.sum(np.abs(recon.data - clean.data) ** 2)
        ratios.append(error / reconstruction_bound(M012, snr))
    assert np.mean(ratios) <= 10, ratios


def test_cell_containment_under_heavy_noise():
    cfg = EstimatorConfig(M012)
    for t in range(50):
        rng = np.random.default_rng(300 + t)
        b = _cv(rng.uniform(-0.5, 0.5, 3), M012)
        y, _ = _noisy(b, (16,), 0.5, 400 + t)
        for path in (
            estimate(y, cfg),
            estimate(
                y, EstimatorConfig(M012, lags=((1,), (2,)))
            ),
        ):
            v = path.binomial.values
            assert np.all((v >= -0.5) & (v < 0.5))


def test_descending_order_independence():
    alt = DegreeSet(((0, 0), (1, 0), (0, 1), (1, 1)))
    rng = np.random.default_rng(17)
    b = _cv(rng.uniform(-0.5, 0.5, 4), M2D)
    y, _ = _noisy(b, (6, 6), 5.0, 18)
    est_a = estimate(y, EstimatorConfig(M2D))
    est_b = estimate(y, EstimatorConfig(alt))
    for m in M2D.degrees:
        assert est_a.binomial[m] == pytest.approx(est_b.binomial[m], abs=1e-9)


def test_equivariant_error_distribution_is_parameter_free():
    # With noise applied in the rotated (multiplicative) sense, the
    # reconstruction error for any b equals the error for b = 0 exactly.
    N = (32,)
    rng = np.random.default_rng(19)
    w = 0.3 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    b = _cv(rng.uniform(-0.5, 0.5, 2), M01)
    s_b = synthesize(b, N)
    y_zero = Signal(N, 1.0 + w)
    y_b = Signal(N, s_b.data * (1.0 + w))
    cfg = EstimatorConfig(M01)
    e_zero = estimate(y_zero, cfg)
    e_b = estimate(y_b, cfg)
    err_zero = np.abs(
        np.exp(2j * np.pi * phase_field(e_zero.binomial, N)) - 1.0
    )
    err_b = np.abs(
        np.exp(2j * np.pi * phase_field(e_b.binomial, N)) - s_b.data
    )
    assert np.max(np.abs(err_zero - err_b)) < 1e-9


# -- Direct (monomial) estimator -------------------------------------------------


def test_direct_noise_free_matches_lattice_mapping():
    rng = np.random.default_rng(23)
    for M, N in ((M012, (12,)), (M2D, (5, 6))):
        b = _cv(rng.uniform(-0.45, 0.45, len(M)), M)
        s = synthesize(b, N)
        est = estimate_coefficients_direct(s, EstimatorConfig(M))
        T = binomial_to_monomial_matrix(M)
        expected = compute_new_coordinate(b, T)
        assert np.max(np.abs(est.monomial.values - expected.values)) < 1e-9


def test_direct_degree_zero_equals_plain():
    M0 = build_total_order([(0,)])
    y, _ = _noisy(_cv([0.3], M0), (10,), 10.0, 29)
    d = estimate_coefficients_direct(y, EstimatorConfig(M0))
    p = estimate(y, EstimatorConfig(M0))
    assert d.monomial.values == pytest.approx(p.binomial.values)


def test_direct_two_stage_reconstruction_equivalence():
    rng = np.random.default_rng(31)
    for M, N in ((M012, (24,)), (M2D, (6, 8))):
        T = binomial_to_monomial_matrix(M)
        cfg = EstimatorConfig(M)
        for t in range(10):
            b = _cv(rng.uniform(-0.5, 0.5, len(M)), M)
            y, _ = _noisy(b, N, 20.0, 1000 + t)
            two_stage = compute_new_coordinate(
                estimate(y, cfg).binomial, T
            )
            direct = estimate_coefficients_direct(y, cfg)
            r1 = np.exp(2j * np.pi * phase_field(two_stage, N))
            r2 = np.exp(2j * np.pi * phase_field(direct.monomial, N))
            assert np.max(np.abs(r1 - r2)) < 1e-9


def test_direct_back_substitution_is_the_triangular_solve_bitwise():
    # The monomial estimate maps back to the binomial basis by back
    # substitution through the unit upper triangular T, row by row: the
    # bytes of scipy's solve_triangular, at 0 and 20 dB.
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(41)
    sets = [
        (build_total_order([(d,) for d in range(4)]), (64,)),
        (build_total_order([(d,) for d in range(7)]), (48,)),
        (build_total_order([(i, j) for i in range(4) for j in range(4) if i + j <= 3]), (12, 10)),
    ]
    for M, N in sets:
        T = binomial_to_monomial_matrix(M)
        for t in range(40):
            y, _ = _noisy(_cv(rng.uniform(-0.5, 0.5, len(M)), M), N, (1.0, 100.0)[t % 2], t)
            est = estimate_coefficients_direct(y, EstimatorConfig(M))
            want = wrap_to_cell(solve_triangular(T, est.monomial.values))
            assert est.binomial.values.tobytes() == want.tobytes()


# -- General-degree estimator ----------------------------------------------------


def test_general_noise_free_monomial_degree():
    M3 = build_total_order([(3,)])
    b = _cv([0.37], M3)
    s = synthesize(b, (16,))
    est = estimate(s, EstimatorConfig(M3))
    assert est.binomial.values == pytest.approx([0.37], abs=1e-9)


def test_general_output_in_cell():
    M3 = build_total_order([(3,)])
    cfg = EstimatorConfig(M3)
    for t in range(20):
        y, _ = _noisy(_cv([0.49], M3), (16,), 2.0, 500 + t)
        v = estimate(y, cfg).binomial.values
        assert np.all((v >= -0.5) & (v < 0.5))


M013 = build_total_order([(0,), (1,), (3,)])


@pytest.mark.parametrize(
    "M, N",
    [(M013, (2**16,)), (M013, (2**20,)), (build_total_order([(0, 0), (2, 0), (0, 2)]), (256, 256))],
    ids=["2^16", "2^20", "256x256"],
)
def test_non_closed_noise_free_recovery_is_exact(M, N):
    # The projection adds J_MM^-1 J_MR r_R to the kept coefficients, so a
    # nuisance part that comes back 0 leaves them as the closure estimated
    # them: exactly, with CIRCULAR, from a phase given exactly.  Sending all
    # of r through the ill-conditioned solve missed by 1e-2 cycles at 2^16,
    # 0.48 at 2^20 and 1.9e-12 at 256x256.
    truth = np.random.default_rng(31).uniform(-0.5, 0.5, (3, len(M)))
    values, _ = estimate_batch(np.stack([exact_signal(b, M, N) for b in truth]), EstimatorConfig(M))
    assert np.max(np.abs(wrap_to_cell(values - truth))) <= 1e-15


def test_non_closed_mse_stays_at_the_constrained_crb():
    # At 2^16 and 30 dB each coefficient of {0, 1, 3} reads its constrained
    # CRB.  Over 32 draws an efficient estimator's MSE over CRB is about
    # chi^2_32 / 32, which exceeds 3 with probability below 1e-9; degree 3
    # reads below 1, since its CRB lies below the float64 resolution of the
    # coefficient.  Projecting all of r through the solve read 4e4 to 7e4.
    N, snr = (2**16,), 1000.0
    truth = np.random.default_rng(32).uniform(-0.5, 0.5, (32, len(M013)))
    clean = np.stack([exact_signal(b, M013, N) for b in truth])
    noise = np.random.default_rng(33).standard_normal((2,) + clean.shape)
    noisy = clean + np.sqrt(0.5 / snr) * (noise[0] + 1j * noise[1])
    values, _ = estimate_batch(noisy, EstimatorConfig(M013))
    mse = np.mean(wrap_to_cell(values - truth) ** 2, axis=0)
    assert np.all(mse / np.diag(crb(M013, N, snr)) <= 3.0)


@pytest.mark.xfail(strict=True, reason="r_M + P r_R in float64 keeps no fraction of a cycle")
def test_non_closed_projection_keeps_the_fraction_of_a_cycle():
    # For {0, 5, 9} at 4096 samples P = J_MM^-1 J_MR reaches 3.4e21, so the
    # float64 projection of the closure's estimates is an integer number of
    # cycles plus rounding, where the exact P applied to the same estimates,
    # in Fractions and wrapped to the cell, keeps their fractional turns.
    # Over these draws degree 0 reads up to 0.26 cycle off, degree 5 3e-9.
    M = build_total_order([(0,), (5,), (9,)])
    N, closure = (4096,), downward_closure(M)
    gram = integer_gram(closure, N)
    rows = [closure.position(m) for m in M.degrees]
    rest = [i for i in range(len(closure)) if i not in rows]
    inverse = exact_inverse([[gram[i][j] for j in rows] for i in rows])
    P = [[sum(v * gram[i][r] for v, i in zip(row, rows)) for r in rest] for row in inverse]
    rng = np.random.default_rng(34)
    truth = rng.uniform(-0.5, 0.5, (8, len(M)))
    clean = np.stack([exact_signal(b, M, N) for b in truth])
    noise = rng.standard_normal((2,) + clean.shape)
    noisy = clean + np.sqrt(0.5 / 1000.0) * (noise[0] + 1j * noise[1])
    r, _ = estimator_module._sequential(noisy, EstimatorConfig(closure))
    got, _ = estimate_batch(noisy, EstimatorConfig(M))
    for rt, gt in zip(r, got):
        x = [Fraction(rt[i]) + sum(p * Fraction(rt[j]) for p, j in zip(row, rest))
             for i, row in zip(rows, P)]
        want = [float(v - math.floor(v + Fraction(1, 2))) for v in x]
        assert np.abs(wrap_to_cell(gt - np.array(want))).max() <= 1e-6


# -- Multi-lag estimator ---------------------------------------------------------


def test_multilag_noise_free_recovery():
    cfg = EstimatorConfig(M01, lags=((1,), (2,), (4,)))
    b = _cv([0.3, -0.2], M01)
    s = synthesize(b, (32,))
    est = estimate(s, cfg)
    assert np.max(np.abs(est.binomial.values - b.values)) < 1e-9
    # later lag stages contribute nothing once the first pass cancelled all
    for (m, tau), delta in est.diagnostics.items():
        if tau != (1,):
            assert abs(delta) < 1e-9


M2D_TOTAL2_LAGS = ((1, 1), (2, 2))


def _noisy_batch(M, N, snr, seed, rows=3):
    rng = np.random.default_rng(seed)
    b = [_cv(rng.uniform(-0.5, 0.5, len(M)), M) for _ in range(rows)]
    return np.stack([_noisy(bt, N, snr, seed + t)[0].data for t, bt in enumerate(b)])


@pytest.mark.parametrize("snr_db", [30.0, 15.0])
@pytest.mark.parametrize("kind", list(AveragingKind))
@pytest.mark.parametrize(
    "M, N, lags",
    [(M012, (512,), ((1,), (2,), (4,))), (M2D_TOTAL2, (40, 36), M2D_TOTAL2_LAGS)],
    ids=["1d", "2d"],
)
def test_kernel_matches_per_stage_reference(M, N, lags, kind, snr_db):
    # The kernel cancels each degree once and rotates the lag passes by a
    # scalar; the reference cancels every (degree, lag) stage over the full
    # window.  The two differ only in rounding.
    data = _noisy_batch(M, N, 10 ** (snr_db / 10), 7)
    cfg = EstimatorConfig(M, kind, lags=lags)
    values, diagnostics = estimator_module._sequential(data, cfg, BINOMIAL)
    ref_values, ref_diagnostics = reference_sequential(data, cfg)
    assert np.max(np.abs(values - ref_values)) <= 1e-9
    assert diagnostics.keys() == ref_diagnostics.keys()
    for key, delta in diagnostics.items():
        assert np.max(np.abs(delta - ref_diagnostics[key])) <= 1e-9


@pytest.mark.parametrize("kind", list(AveragingKind))
def test_kernel_is_per_stage_reference_with_unit_lag(kind):
    # With one lag each degree's increments are its stage's increments, so
    # the unit-lag path is the reference bit for bit, including noise-free
    # rows whose increments are 0 and signals of -0.0 and of ones.
    noisy = ((M012, (512,)), (M2D_TOTAL2, (40, 36)))
    batches = [(M, _noisy_batch(M, N, 10.0, 8)) for M, N in noisy]
    for M, N in ((M012, (64,)), (M2D_TOTAL2, (16, 12))):
        middle = np.full(len(M), 0.125)
        middle[len(M) // 2] = 0.0
        half = np.zeros(len(M))
        half[0] = -0.5
        clean = [synthesize(_cv(b, M), N).data for b in (middle, np.zeros(len(M)), half)]
        flat = [np.full(N, complex(-0.0, -0.0)), np.ones(N, dtype=complex)]
        batches.append((M, np.stack(clean + flat + [_noisy_batch(M, N, 10.0, 9, rows=1)[0]])))
    for M, data in batches:
        cfg = EstimatorConfig(M, kind)
        values, diagnostics = estimator_module._sequential(data, cfg, BINOMIAL)
        ref_values, ref_diagnostics = reference_sequential(data, cfg)
        assert values.tobytes() == ref_values.tobytes()
        assert all(d.tobytes() == ref_diagnostics[k].tobytes() for k, d in diagnostics.items())


@pytest.mark.parametrize(
    "M, b, N, lags",
    [
        (M012, (0.25, -0.375, 0.125), (2**16,), ((1,), (2,), (3,))),
        (
            M2D_TOTAL2,
            (0.25, -0.375, 0.125, 0.0625, -0.1875, 0.3125),
            (512, 512),
            M2D_TOTAL2_LAGS,
        ),
    ],
    ids=["1d-2^16", "2d-512x512"],
)
def test_noise_free_recovery_with_lag_schedules(M, b, N, lags):
    # The later lags of a degree leave increments below half an ulp of the
    # first, so their sum is the dyadic coefficient itself and the one
    # full-window cancellation of the degree removes its term exactly.
    # Cancelling every lag's increment on its own leaves ~1e-17 * C(n, m)
    # of phase behind for the lower degrees.
    x = sum(bj * binomial_field(m, N) for bj, m in zip(b, M.degrees))
    y = Signal(N, np.exp(2j * np.pi * (x - np.rint(x))))
    est = estimate(y, EstimatorConfig(M, lags=lags))
    assert np.max(np.abs(est.binomial.values - np.array(b))) <= 1e-15


M0123 = build_total_order([(0,), (1,), (2,), (3,)])


@pytest.fixture(scope="module")
def exact_cubics_2e20():
    rng = np.random.default_rng(2024)
    truth = rng.uniform(-0.5, 0.5, (3, len(M0123)))
    return truth, np.stack([exact_signal(b, M0123, (2**20,)) for b in truth])


@pytest.mark.parametrize(
    "kind, lags",
    [
        (AveragingKind.CIRCULAR, ()),
        (AveragingKind.CIRCULAR, ((1,), (16,), (256,))),
        (AveragingKind.LINEAR, ((1,), (16,), (256,))),
    ],
    ids=["circular", "circular-1/16/256", "linear-1/16/256"],
)
def test_noise_free_degree_3_at_2e20(exact_cubics_2e20, kind, lags):
    # Each degree's term is cancelled in exact turns, so a phase given
    # exactly comes back exactly, even where C(n, 3) reaches 2^57.  LINEAR on
    # the unit lag alone is left out: the float64 rounding of its degree-3
    # increment, up to 2.2e-16, times C(N, 3) is 0.2-0.4 cycles at 2^20.
    truth, data = exact_cubics_2e20
    values, _ = estimate_batch(data, EstimatorConfig(M0123, kind, lags=lags))
    assert np.max(np.abs(wrap_to_cell(values - truth))) <= 1e-9


@pytest.mark.parametrize("estimator", [estimate, estimate_coefficients_direct])
@pytest.mark.parametrize("kind", list(AveragingKind))
def test_small_coefficients_cancel_through_the_remainder(estimator, kind):
    # Fractions below 2^-12 cycle have bits below a turn, which each degree's
    # cancellation takes from the float64 field: recovery stays exact to
    # the synthesizer's rounding.
    for M, N, b in (
        (M012, (4096,), [0.25, 3e-6, -7e-9]),
        (M2D, (64, 48), [0.125, -2e-7, 5e-6, 1e-9]),
    ):
        est = estimator(synthesize(_cv(b, M), N), EstimatorConfig(M, kind))
        assert np.max(np.abs(est.binomial.values - np.array(b))) <= 1e-14


def _turn_gap(a: int, b: int) -> int:
    """The distance between two int64 phases in turns, modulo 2^64."""
    d = (a - b) % 2**64
    return min(d, 2**64 - d)


def test_cancellation_turns_match_a_fraction_oracle():
    # acc * F modulo one cycle, in turns: exact for |acc - rint(acc)| >=
    # 2^-12, and within the float64 rounding of the remainder below one
    # turn, about F * 2^-52 turns, for smaller fractions.  apply_term adds
    # the turns over the whole 2^20 window, in 32 blocks, a few signals at
    # a time; 12 row spans are checked.
    rng = np.random.default_rng(77)
    tiny = [1e-5, -3e-10, 2.0**-70, -(2.0**-64) * 1.5, 1e-300, 2.0**-12, -(2.0**-13)]
    accs = np.concatenate([rng.uniform(-3, 3, 40), tiny, [0.5, -0.5, 2.5, 0.0, -0.0]])
    N = (2**20,)
    spans = [(0, 3), (N[0] - 1, N[0])] + [(n, n + 20) for n in rng.integers(0, N[0] - 20, 10)]
    for m in ((1,), (2,), (3,), (4,)):
        field = binomial_field(m, N)
        for chunk in np.array_split(accs, 13):
            got = np.zeros((len(chunk),) + N, np.int64)
            estimator_module.apply_term(got, chunk, m, BINOMIAL, np.add)
            for a, b in spans:
                F = field[a:b]
                for acc, row in zip(chunk, got[:, a:b]):
                    gap = row.view(np.uint64) - exact_term_turns(acc, m, N, a, b).view(np.uint64)
                    gap = np.minimum(gap, -gap).astype(float)  # the distance modulo 2^64
                    if abs(acc - np.rint(acc)) >= 2.0**-12:
                        assert not gap.any(), (acc, m, a)
                    else:
                        assert np.all(gap <= 1 + F * 2.0**-51), (acc, m, a)
    for tau_pow in (16**3, 256**3, 256**8, 3**41, 2**63 + 5):
        exact = estimator_module._int64(tau_pow)
        got = estimator_module._turns(estimator_module._split(accs), exact, float(tau_pow))
        for acc, turns in zip(accs, got):
            phase = Fraction(float(acc)) * tau_pow
            want = (phase - math.floor(phase + Fraction(1, 2))) * 2**64
            limit = 0 if abs(acc - np.rint(acc)) >= 2.0**-12 else 1 + tau_pow * 2.0**-51
            assert _turn_gap(int(turns), math.trunc(want)) <= limit, (acc, tau_pow)


@pytest.mark.parametrize("N", [(64,), (2**14,), (40, 36)], ids=str)
def test_circular_anchor_rotates_exactly_with_the_field(N):
    # Rotating a field by c turns moves its anchor by exactly c (a drawn lag
    # shift s is a rotation by -s), so the contraction about the anchor is
    # unchanged bit for bit.  The fields spread over 0.45 cycle, so float32
    # trig of their absolute phases would move some anchors by c plus rounding.
    rng = np.random.default_rng(sum(N) + 5)
    B, m, tau = 4, (0,) * len(N), (1,) * len(N)
    w = weight_axes(m, tau, N)
    lead = (-1,) + (1,) * len(N)
    for _ in range(50):
        centre = rng.integers(-(2**63), 2**63, size=B, dtype=np.int64).reshape(lead)
        spread = rng.uniform(-0.225, 0.225, (B,) + N) * 2.0**64
        turns = centre + spread.astype(np.int64)
        c = rng.integers(-(2**63), 2**63, size=B, dtype=np.int64)
        rotated = turns + c.reshape(lead)
        lag_shift = rng.integers(-(2**63), 2**63, size=B, dtype=np.int64)
        anchor = estimator_module._anchor(turns, m, tau)
        moved = estimator_module._anchor(rotated, m, tau)
        assert np.array_equal(moved - anchor, c)
        shifted = estimator_module._anchor(turns - lag_shift.reshape(lead), m, tau)
        assert np.array_equal(shifted, anchor - lag_shift)
        linear = AveragingKind.LINEAR
        before = estimator_module._mean_phase(linear, turns, m, tau, anchor, w)
        after = estimator_module._mean_phase(linear, rotated, m, tau, moved, w)
        assert before.tobytes() == after.tobytes()


def test_multilag_lag_window_guard():
    cfg = EstimatorConfig(M01, lags=((1,), (40,)))
    s = synthesize(_cv([0.1, 0.1], M01), (32,))
    with pytest.raises(ValueError):
        estimate(s, cfg)


def test_single_lag_identifiability_cell():
    # With a single lag tau > 1, noise-free recovery holds iff the
    # coefficient sits inside the shrunken cell; outside, the estimate wraps
    # by a multiple of 1/tau^m.
    M1 = build_total_order([(0,), (1,)])
    tau = 4

    def single_lag_estimate(b1):
        # a lag schedule must start at 1, so drive the tau-only pass through
        # the operator machinery directly
        from ppsg.signal import phase_diff_multi

        b = _cv([0.0, b1], M1)
        s = synthesize(b, (33,))
        diffed = phase_diff_multi(s, (1,), (tau,))
        mean = average(
            AveragingKind.CIRCULAR, diffed, weight_multi((1,), (tau,), (33,))
        )
        return principal_arg(mean) / (2 * np.pi * tau)

    inside = 0.1  # |b| < 1/(2 tau)
    outside = 0.3
    assert single_lag_estimate(inside) == pytest.approx(inside, abs=1e-9)
    wrapped = single_lag_estimate(outside)
    assert abs(wrapped - outside) > 1e-3
    shift = (wrapped - outside) * tau
    assert shift == pytest.approx(round(shift), abs=1e-9)


# -- Parameter invariance witness ------------------------------------------------


def test_witness_noise_free_zero():
    b = _cv([0.2, 0.3], M01)
    s = synthesize(b, (16,))
    x_true = RealField((16,), phase_field(b, (16,)))
    w = parameter_invariance_witness(s, x_true, EstimatorConfig(M01))
    assert np.array_equal(w, [0, 0])


@pytest.mark.parametrize(
    "cfg_kwargs, N, snr, trials",
    [
        pytest.param({}, 32, 1.5, 25, id="cfg_kwargs0"),
        pytest.param({"lags": ((1,), (2,))}, 32, 1.5, 25, id="cfg_kwargs1"),
        # The sweep config at its lowest SNR, where samples cross the cut.
        pytest.param({}, 64, 1.0, 300, id="sweep-64-0db"),
    ],
)
def test_witness_integer_on_noisy_trials(cfg_kwargs, N, snr, trials):
    cfg = EstimatorConfig(M01, **cfg_kwargs)
    for t in range(trials):
        rng = np.random.default_rng(600 + t)
        b = _cv(rng.uniform(-0.5, 0.5, 2), M01)
        y, _ = _noisy(b, (N,), snr, 700 + t)
        x_true = RealField((N,), phase_field(b, (N,)))
        parameter_invariance_witness(y, x_true, cfg)  # raises on violation


@pytest.mark.parametrize(
    "M, N, snr",
    [(M012, (2**14,), 10.0), (M2D_TOTAL2, (128, 128), 10.0), (M012, (2**14,), 1.0)],
    ids=["1d-2^14", "2d-128x128", "1d-2^14-0db"],
)
def test_witness_integer_above_the_anchor_subsample(M, N, snr):
    # Above 4096 samples the CIRCULAR anchor reads a strided subsample of
    # each field; rotating the field must still rotate the anchor alike.
    cfg = EstimatorConfig(M)
    for t in range(3):
        rng = np.random.default_rng(1100 + t)
        b = _cv(rng.uniform(-0.5, 0.5, len(M)), M)
        y, _ = _noisy(b, N, snr, 1200 + t)
        x_true = RealField(N, phase_field(b, N))
        parameter_invariance_witness(y, x_true, cfg)  # raises on violation


def test_witness_general_path_integer():
    M3 = build_total_order([(3,)])
    cfg = EstimatorConfig(M3)
    for t in range(10):
        rng = np.random.default_rng(800 + t)
        b = _cv(rng.uniform(-0.5, 0.5, 1), M3)
        y, _ = _noisy(b, (16,), 4.0, 900 + t)
        x_true = RealField((16,), phase_field(b, (16,)))
        parameter_invariance_witness(y, x_true, cfg)


def test_witness_rejects_linear_kind():
    b = _cv([0.1, 0.1], M01)
    s = synthesize(b, (8,))
    x_true = RealField((8,), phase_field(b, (8,)))
    with pytest.raises(ValueError):
        parameter_invariance_witness(
            s, x_true, EstimatorConfig(M01, averaging=AveragingKind.LINEAR)
        )


# -- Dispatcher -------------------------------------------------------------------


def test_estimate_dispatch():
    y, _ = _noisy(_cv([0.1, 0.2], M01), (32,), 10.0, 43)
    plain = estimate(y, EstimatorConfig(M01))
    assert np.array_equal(
        plain.binomial.values,
        estimate_batch(y.data[None], EstimatorConfig(M01))[0][0],
    )
    multi = estimate(y, EstimatorConfig(M01, lags=((1,), (2,))))
    assert set(multi.diagnostics) == {((0,), (1,)), ((0,), (2,)), ((1,), (1,)), ((1,), (2,))}
    M3 = build_total_order([(3,)])
    y3, _ = _noisy(_cv([0.2], M3), (16,), 10.0, 44)
    gen = estimate(y3, EstimatorConfig(M3))
    assert gen.binomial.degree_set == M3
    with pytest.raises(ValueError):
        estimate(y3, EstimatorConfig(M3, lags=((1,), (2,))))


def test_config_checks_the_route_rule_at_construction():
    M02 = build_total_order([(0,), (2,)])
    with pytest.raises(ValueError, match="unit lag"):
        EstimatorConfig(M02, lags=((1,), (2,)))
    EstimatorConfig(M02)
    EstimatorConfig(M012, lags=((1,), (2,)))
    with pytest.raises(ValueError, match="direct estimation needs a downward-closed"):
        estimate_coefficients_direct(Signal((8,), np.ones(8, dtype=complex)), EstimatorConfig(M02))
    with pytest.raises(ValueError, match="direct estimation supports only the unit lag"):
        estimate_coefficients_direct(
            Signal((8,), np.ones(8, dtype=complex)), EstimatorConfig(M012, lags=((1,), (2,)))
        )


# -- Shared kernel ----------------------------------------------------------------


@pytest.mark.parametrize("kind", list(AveragingKind))
def test_estimate_batch_rows_equal_single_estimates(kind):
    # Constant rows have zero increments, so their samples must not be
    # touched while the noisy rows of the same batch are cancelled: a
    # multiply by 1 turns -0.0 into 0.0, and arg(-0 - 0j) = -pi but
    # arg(0 - 0j) = -0.
    N = (12, 10)
    rows = [_noisy(_cv([0.1, -0.2, 0.3, 0.05], M2D), N, 5.0, seed)[0].data for seed in (1, 2)]
    rows += [np.full(N, complex(-0.0, -0.0)), np.ones(N, dtype=complex)]
    M2 = build_total_order([(0, 0), (1, 1)])
    configs = [
        EstimatorConfig(M2D, kind),
        EstimatorConfig(M2D, kind, lags=((1, 1), (2, 2))),
        EstimatorConfig(M2, kind),
    ]
    for cfg in configs:
        values, diagnostics = estimate_batch(np.stack(rows), cfg)
        for t, row in enumerate(rows):
            one = estimate(Signal(N, row), cfg)
            assert one.binomial.values.tobytes() == values[t].tobytes()
            assert repr(one.diagnostics) == repr({k: float(d[t]) for k, d in diagnostics.items()})
    with pytest.raises(ValueError, match="non-finite"):
        estimate_batch(np.stack(rows[:1] + [np.full(N, np.nan + 0j)]), configs[0])


@pytest.mark.parametrize(
    "estimator, lags",
    [
        pytest.param(estimate, (), id="estimate-binomial_field-lags0"),
        pytest.param(estimate, ((1, 1), (2, 2)), id="estimate-binomial_field-lags1"),
        pytest.param(
            estimate_coefficients_direct, (), id="estimate_coefficients_direct-monomial_field-lags2"
        ),
    ],
)
def test_kernel_skips_last_cancellation(monkeypatch, estimator, lags):
    # Every stage of a noisy input has a nonzero increment.  Lag passes
    # rotate by a scalar, so each degree but the last cancels its term once,
    # whatever the lag schedule, in one apply_term call: |M| degrees make
    # |M| - 1 calls, one per degree.
    calls = []
    original = estimator_module.apply_term

    def counting(turns, c, m, basis, step):
        calls.append(m)
        return original(turns, c, m, basis, step)

    monkeypatch.setattr(estimator_module, "apply_term", counting)
    y, _ = _noisy(_cv([0.1, -0.2, 0.3, 0.05], M2D), (12, 10), 5.0, 45)
    cfg = EstimatorConfig(M2D, lags=lags)
    est = estimator(y, cfg)
    stages = len(M2D) * len(cfg.lags)
    assert len(est.diagnostics) == stages
    assert all(delta != 0.0 for delta in est.diagnostics.values())
    assert sorted(calls) == sorted(M2D.degrees)[1:]


@pytest.mark.parametrize("scale", [1e160, 1e-160])
@pytest.mark.parametrize("kind", list(AveragingKind))
def test_extreme_magnitudes_estimate(kind, scale):
    # A product of four raw samples would overflow at 1e160 and underflow at
    # 1e-160.  The kernel takes each sample's argument once at entry, so
    # neither happens.
    b = _cv([0.0, 0.05, 0.1], M012)
    y = Signal((16,), scale * synthesize(b, (16,)).data)
    est = estimate(y, EstimatorConfig(M012, kind))
    assert np.max(np.abs(est.binomial.values - b.values)) < 1e-12


def _extreme_signal(case):
    if case == "overflowing modulus":
        # Every phase is a diagonal, so both parts of each sample are finite,
        # about 1.6e308, while the modulus, about 2.2e308, is not.
        b = _cv([0.125, -0.25, 0.25], M012)
        return b, (synthesize(b, (16,)).data * 2.0**1023) * 2.5
    b = _cv([0.0, 0.05, 0.1], M012)
    data = synthesize(b, (16,)).data
    if case == "one subnormal sample":
        data[3] *= 1e-310
        return b, data
    return b, data * 1e-310


@pytest.mark.parametrize("case", ["overflowing modulus", "one subnormal sample", "all subnormal"])
@pytest.mark.parametrize("kind", list(AveragingKind))
def test_extreme_finite_samples_estimate(kind, case):
    # Dividing by such a modulus gives 0 or inf + nan j.  The kernel divides
    # by no modulus: arctan2 reads the two parts as they are.
    b, data = _extreme_signal(case)
    assert np.isfinite(data).all()
    est = estimate(Signal((16,), data), EstimatorConfig(M012, kind))
    assert np.max(np.abs(est.binomial.values - b.values)) < 1e-12


@pytest.mark.parametrize(
    "M, N, lags",
    [
        (M2D_TOTAL2, (128, 128), ()),
        (M2D_TOTAL2, (128, 128), M2D_TOTAL2_LAGS),
        (M012, (2**14,), ((1,), (2,))),
    ],
    ids=["2d unit lag", "2d lag schedule", "1d lag schedule"],
)
@pytest.mark.parametrize("kind", list(AveragingKind))
def test_batch_above_256_kib_rows_equal_single_estimates(kind, M, N, lags):
    # Three 256 KiB rows.  From 256 KiB up numpy reuses a temporary operand
    # as a product's output, which would turn later * conj(earlier) into
    # conj(earlier) * later for the differences of the batch but not for
    # those of one row.  einsum sums an axis of more than 8192 samples in
    # pieces, split differently for a batch and for one row.
    data = _noisy_batch(M, N, 10.0, 11)
    assert data.nbytes > 256 * 1024 >= data[0].nbytes
    cfg = EstimatorConfig(M, kind, lags=lags)
    values, diagnostics = estimate_batch(data, cfg)
    for t, row in enumerate(data):
        one = estimate(Signal(N, row), cfg)
        assert one.binomial.values.tobytes() == values[t].tobytes()
        assert repr(one.diagnostics) == repr({k: float(d[t]) for k, d in diagnostics.items()})


# -- Blocks --------------------------------------------------------------------

_BLOCK = basis_module._BLOCK_SAMPLES
M3D = build_total_order([(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0)])
_BLOCK_EDGE_WINDOWS = [
    (_BLOCK - 1,),
    (_BLOCK,),
    (_BLOCK + 1,),
    (3 * _BLOCK + 5,),
    (3, 40000),
    (2, 9000),
    (70, 600),
    (20, 30, 40),
]


def _stage_degrees(dim):
    return [(0,) * dim, (1,) + (0,) * (dim - 1), (0,) * (dim - 1) + (1,), (2,) + (0,) * (dim - 1)]


@pytest.mark.parametrize("N", _BLOCK_EDGE_WINDOWS, ids=str)
@pytest.mark.parametrize("kind", list(AveragingKind))
def test_blocked_stage_is_whole_field_stage(kind, N):
    # A stage gathers the anchor's samples from the turns, then differences
    # each block once with the m[0] * tau[0] rows after it and contracts it,
    # and every sum is formed as the whole field forms it: bit for bit, under
    # a zero and a drawn lag shift, for a batch and for each of its rows alone.
    # Rows of (3, 40000) exceed a block, and degree (2, 0) leaves one row.
    # The stage reads the cached weight prefixes, the oracle whole axes.
    rng = np.random.default_rng(sum(N))
    turns = rng.integers(-(2**63), 2**63, size=(2,) + N, dtype=np.int64)
    lag_shift = rng.integers(-(2**63), 2**63, size=2, dtype=np.int64)
    for m in _stage_degrees(len(N)):
        for t in (1, 2, 4):
            tau = (t,) * len(N)
            if any(Nd - t * md < 1 for Nd, md in zip(N, m)):
                continue
            w = weight_prefixes(m, tau, N)
            for shift in (np.zeros(2, np.int64), lag_shift):
                got = estimator_module._mean_phase(kind, turns, m, tau, shift, w)
                want = whole_field_stage(kind, turns, m, tau, shift, weight_axes(m, tau, N))
                assert got.tobytes() == want.tobytes(), (m, tau)
                for r in range(len(turns)):
                    one = shift[r : r + 1]
                    lone = estimator_module._mean_phase(kind, turns[r : r + 1], m, tau, one, w)
                    assert lone.tobytes() == got[r : r + 1].tobytes(), (m, tau, r)


@pytest.mark.parametrize("N", _BLOCK_EDGE_WINDOWS, ids=str)
def test_anchor_gather_is_the_strided_whole_field_difference(N):
    # The anchor gathers each sample's stencil from the turns instead of
    # differencing the window: bit for bit the whole field's differences at
    # the flat stride, and C-ordered (a plain a[:, idx] is not, and a
    # reduction may then sum its rows in another order), so that a batch's
    # resultant sums equal those of each row alone.
    rng = np.random.default_rng(sum(N) + 1)
    turns = rng.integers(-(2**63), 2**63, size=(3,) + N, dtype=np.int64)

    def sums(samples):
        x = (samples * (estimator_module.TWO_PI * 2.0**-64)).astype(np.float32)
        return [f(x).sum(axis=-1, dtype=float) for f in (np.cos, np.sin)]

    for m in _stage_degrees(len(N)):
        for t in (1, 2, 4):
            tau = (t,) * len(N)
            if any(Nd - t * md < 1 for Nd, md in zip(N, m)):
                continue
            got = estimator_module._anchor_samples(turns, m, tau)
            whole = _difference(turns, m, tau, np.subtract).reshape(len(turns), -1)
            want = whole[:, :: -(-whole.shape[1] // estimator_module._ANCHOR_SAMPLES)]
            assert got.flags.c_contiguous and got.shape == want.shape, (m, tau)
            assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (m, tau)
            batch = sums(got)
            for r in range(len(turns)):
                lone = estimator_module._anchor_samples(turns[r : r + 1], m, tau)
                assert lone.tobytes() == got[r].tobytes(), (m, tau, r)
                for one, all_rows in zip(sums(lone), batch):
                    assert one.tobytes() == all_rows[r : r + 1].tobytes(), (m, tau, r)


@pytest.mark.parametrize(
    "M, N, lags",
    [
        (M012, (2**14,), ()),
        (M2D_TOTAL2, (128, 128), ()),
        (M2D_TOTAL2, (512, 512), ((1, 1), (2, 2), (4, 4))),
    ],
    ids=["2^14", "128x128", "512x512-3-lags"],
)
def test_circular_stage_differences_each_block_once_with_float32_trig(monkeypatch, M, N, lags):
    # Past the entry the only trig is the anchor's: float32 cos and sin of at
    # most 4096 samples per signal and stage.  Each stage differences every
    # block once, plus one stencil of gathered anchor samples: 144 block
    # calls and 18 stencil calls for the 512x512 three-lag estimate.
    data = _noisy_batch(M, N, 10.0, 15, rows=2)
    cfg = EstimatorConfig(M, lags=lags)
    trig, differenced = [], []
    for name in ("cos", "sin"):

        def recording(x, *args, _f=getattr(np, name), **kwargs):
            trig.append((x.dtype, x.shape))
            return _f(x, *args, **kwargs)

        monkeypatch.setattr(np, name, recording)

    def counting(data, k, tau, step):
        differenced.append(data.shape)
        return _difference(data, k, tau, step)

    monkeypatch.setattr(estimator_module, "_difference", counting)
    estimate_batch(data, cfg)
    stages = [(m, tau) for m in M.degrees for tau in cfg.lags]
    assert len(trig) == 2 * len(stages)
    assert all(dtype == np.float32 and shape[0] == 2 and shape[-1] <= 4096 for dtype, shape in trig)
    rows = estimator_module._block_rows(N)
    blocks = sum(len(estimator_module._blocks(N[0] - tau[0] * m[0], rows)) for m, tau in stages)
    assert len(differenced) == blocks + len(stages)
    if N == (512, 512):
        assert blocks == 144 and len(stages) == 18


@pytest.mark.parametrize(
    "M, N, lags",
    [
        pytest.param(M012, (_BLOCK - 1,), ((1,), (2,), (4,)), id="block-1"),
        pytest.param(M012, (_BLOCK,), ((1,), (2,), (4,)), id="block"),
        pytest.param(M012, (_BLOCK + 1,), ((1,), (2,), (4,)), id="block+1"),
        pytest.param(M012, (3 * _BLOCK + 5,), ((1,), (2,), (4,)), id="3block+5"),
        pytest.param(M012, (2**20,), ((1,), (2,), (4,)), id="2^20"),
        pytest.param(M2D_TOTAL2, (3, 40000), (), id="3x40000"),
        pytest.param(M2D, (2, 9000), (), id="2x9000"),
        pytest.param(M3D, (20, 30, 40), ((1, 1, 1), (2, 2, 2), (4, 4, 4)), id="20x30x40"),
    ],
)
@pytest.mark.parametrize("kind", list(AveragingKind))
def test_blocked_kernel_is_whole_window_reference(kind, M, N, lags):
    # On the unit lag the kernel is the whole-window reference bit for bit,
    # and under every schedule a batch row is its lone estimate bit for bit.
    data = _noisy_batch(M, N, 10.0, 13, rows=2)
    cfg = EstimatorConfig(M, kind)
    values, diagnostics = estimator_module._sequential(data, cfg, BINOMIAL)
    ref_values, ref_diagnostics = reference_sequential(data, cfg)
    assert values.tobytes() == ref_values.tobytes()
    assert all(d.tobytes() == ref_diagnostics[k].tobytes() for k, d in diagnostics.items())
    for cfg in dict.fromkeys((cfg, EstimatorConfig(M, kind, lags=lags))):
        values, diagnostics = estimate_batch(data, cfg)
        for t, row in enumerate(data):
            one = estimate(Signal(N, row), cfg)
            assert one.binomial.values.tobytes() == values[t].tobytes()
            assert repr(one.diagnostics) == repr({k: float(d[t]) for k, d in diagnostics.items()})


@pytest.mark.parametrize("kind", list(AveragingKind))
def test_estimate_holds_one_window_sized_array(kind):
    # Past its input an estimate holds the int64 turns, 8 MiB at 2^20, and
    # cache-sized blocks, each freed after its pass; the anchor gathers at
    # most 4096 samples per stencil point from the turns.
    N = (2**20,)
    y, _ = _noisy(_cv([0.25, -0.375, 0.125], M012), N, 1000.0, 14)
    cfg = EstimatorConfig(M012, kind)
    estimate(y, cfg)  # builds the cached weights and basis axes
    assert traced_peak(estimate, y, cfg) <= 1.5 * 8 * N[0]


@pytest.mark.parametrize(
    "M, N, lags",
    [
        pytest.param(M2D_TOTAL2, (512, 512), ((1, 1), (2, 2), (4, 4)), id="512x512-lags"),
        pytest.param(M2D, (1024, 1024), (), id="1024x1024"),
        pytest.param(build_total_order(list(itertools.product((0, 1), repeat=3))), (64,) * 3, (),
                     id="64^3"),
    ],
)
@pytest.mark.parametrize("kind", list(AveragingKind))
def test_multi_axis_estimate_holds_one_window_sized_array(kind, M, N, lags):
    # A degree that touches every axis cancels its term block by block, so a
    # multi-axis estimate holds its turns and cache-sized blocks alone, as a
    # 1-D one does; forming its whole int64 field first traced 2.06 to 2.44
    # times the turns.  Windows whose trailing axes exceed _BLOCK_SAMPLES,
    # such as (4, 100000) at 1.75 times, are left out: a block holds at least
    # one slice of the first axis, so there a block is a quarter of the
    # window, and its temporaries are not small beside the turns.
    y, _ = _noisy(_cv(np.linspace(-0.4, 0.4, len(M)), M), N, 1000.0, 15)
    cfg = EstimatorConfig(M, kind, lags=lags)
    estimate(y, cfg)  # builds the cached weights and basis axes
    assert traced_peak(estimate, y, cfg) <= 1.5 * 8 * math.prod(N)


def test_remainder_path_holds_one_window_sized_array(monkeypatch):
    # A degree-1 coefficient of 1e-9 comes back within 2^-12 of an integer
    # and is not a whole number of turns, so its cancellation has a sub-turn
    # remainder.  term_turns builds its float factor over each block's rows,
    # so the estimate still holds its turns alone; the whole float field
    # took it to 24.1 MiB.
    N = (2**20,)
    y = synthesize(_cv([0.25, 1e-9, 0.125], M012), N)
    cfg = EstimatorConfig(M012)
    blocks = []
    monkeypatch.setattr(
        basis_module, "_float_rows", lambda *args: blocks.append(args) or _float_rows(*args)
    )
    estimate(y, cfg)  # warm, and on the remainder path
    assert blocks
    monkeypatch.undo()
    assert traced_peak(estimate, y, cfg) <= 1.5 * 8 * N[0]


def test_estimate_on_a_fresh_window_retains_no_field():
    # The integer fields are formed from the cached axes on every call, so
    # one estimate on a window not seen before leaves only its few KiB of
    # Pascal and weight axes cached, not its 700 KiB degree-(1, 1) field.
    b = _cv(np.random.default_rng(24).uniform(-0.4, 0.4, len(M2D_TOTAL2)), M2D_TOTAL2)
    cfg = EstimatorConfig(M2D_TOTAL2)
    estimate(synthesize(b, (20, 20)), cfg)  # any first-call set-up
    y = synthesize(b, (300, 300))
    assert traced_retained(estimate, y, cfg) <= 64 * 1024


@pytest.mark.parametrize("estimator", [estimate, estimate_coefficients_direct])
def test_cancellation_splits_each_term_once(monkeypatch, estimator):
    # A degree's cancellation splits its increment into whole turns and a
    # remainder once, then walks the blocks: at 2^20 a cancelled degree
    # spans 32 blocks, and splitting in each made 32 calls of about 8 us.
    N = (2**20,)
    assert len(basis_module._blocks(N[0], basis_module._block_rows(N))) == 32
    y, _ = _noisy(_cv([0.25, -0.375, 0.125], M012), N, 1000.0, 14)
    calls = []
    original = basis_module._split
    monkeypatch.setattr(basis_module, "_split", lambda acc: calls.append(acc) or original(acc))
    estimator(y, EstimatorConfig(M012))
    assert len(calls) == len(M012) - 1  # degrees 2 and 1; degree 0 is last


def test_fresh_large_window_retains_no_window_sized_integer_axis():
    # The integer axes are cached at the length of a block's rows, 2^15 in
    # 1-D, and shifted to each block, so synthesizing and estimating on a
    # 2^20 window leave at most four 256 KiB axes cached, C(n, m) and n^m
    # for m = 1, 2; the window-length axes left 16 MiB per basis.  The
    # weights, cached at half the window's length, are built first.
    N = (2**20,)
    limit = 4 * 8 * 2**15
    cfg = EstimatorConfig(M012)
    for estimator in (estimate, estimate_coefficients_direct):
        estimator(synthesize(_cv([0.25, -0.375, 0.125], M012), (64,)), cfg)  # first-call set-up
    for m in M012.degrees:
        weight_prefixes(m, (1,), N)
    basis_module._pascal_axis.cache_clear()
    basis_module._power_axis.cache_clear()
    for basis, estimator in ((BINOMIAL, estimate), (MONOMIAL, estimate_coefficients_direct)):
        b = CoefficientVector(np.array([0.25, -0.375, 0.125]), basis, M012)
        assert traced_retained(synthesize, b, N) <= limit, basis
        assert traced_retained(estimator, synthesize(b, N), cfg) <= limit, basis


@pytest.mark.parametrize("lags, limit_mib", [((), 8.6), (((1,), (16,), (256,)), 24.6)])
def test_fresh_large_window_retains_half_weight_axes(lags, limit_mib):
    # Each weight axis is cached as the prefix that fixes it: one sample at
    # degree 0 and the mirror half, 4 MiB, at degrees 1 and 2 at 2^20, per
    # lag.  The whole axes left 24.5 MiB, and 56.5 MiB under lags 1/16/256.
    N = (2**20,)
    b = _cv([0.25, -0.375, 0.125], M012)
    cfg = EstimatorConfig(M012, lags=lags)
    estimate(synthesize(b, (1024,)), cfg)  # first-call set-up
    y = synthesize(b, N)
    weights_module._weight_axis.cache_clear()
    basis_module._pascal_axis.cache_clear()
    basis_module._power_axis.cache_clear()
    assert traced_retained(estimate, y, cfg) <= limit_mib * 2**20


def test_non_finite_sample_in_a_later_block_is_rejected():
    data = np.ones(3 * _BLOCK + 5, dtype=complex)
    data[-1] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match="non-finite"):
        estimate(Signal(data.shape, data), EstimatorConfig(M01))


@pytest.mark.parametrize(
    "M, lags",
    [(M2D_TOTAL2, M2D_TOTAL2_LAGS), (build_total_order([(0, 0)]), M2D_TOTAL2_LAGS)],
    ids=["lag schedule", "degree 0 only"],
)
@pytest.mark.parametrize("kind", list(AveragingKind))
def test_estimators_never_write_their_input(kind, M, lags):
    # The kernel cancels each degree from its own int64 turns in place, and
    # at degree 0 a differenced block is a view of those turns; neither may
    # reach the caller's array.
    data = _noisy_batch(M, (20, 18), 10.0, 12)
    data[1] = 1.0  # a row whose increments are 0
    before = data.tobytes()
    cfg = EstimatorConfig(M, kind, lags=lags)
    estimate_batch(data, cfg)
    assert data.tobytes() == before
    y = Signal((20, 18), data[0])
    assert np.shares_memory(y.data, data)
    estimate(y, cfg)
    assert data.tobytes() == before


_AFFINITY_CHILD = """
import os, sys
if {pin}:
    os.sched_setaffinity(0, {{max(os.sched_getaffinity(0))}})
import numpy as np
from ppsg.basis import BINOMIAL, CoefficientVector
from ppsg.degrees import build_total_order
from ppsg.estimator import AveragingKind, EstimatorConfig, estimate
from ppsg.signal import add_noise, synthesize

M = build_total_order([(0,), (1,), (2,)])
b = CoefficientVector(np.array([0.25, -0.375, 0.125]), BINOMIAL, M)
y = add_noise(synthesize(b, (2**16,)), 10.0, np.random.default_rng(5))
for kind in AveragingKind:
    sys.stdout.write(estimate(y, EstimatorConfig(M, kind)).binomial.values.tobytes().hex())
"""


def test_estimate_bytes_do_not_depend_on_cpu_affinity():
    # The averaging contraction makes no BLAS call, whose thread pool sizes
    # itself by the CPUs a process may use and could change the sum order.
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs at least 2 allowed CPUs")
    runs = [run_python(_AFFINITY_CHILD.format(pin=pin)) for pin in (True, False)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout
    assert runs[0].stdout == runs[1].stdout


def _benchmark_hooks():
    """The (module, attribute, span) triples that ``benchmarks/spans.py``
    rebinds, read from that file."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("ppsg_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.HOOKS


def test_benchmark_hooks_exist():
    # The benchmark tracer rebinds these module attributes and only records a
    # missing one, so a renamed attribute would silently zero its metric.
    hooks = _benchmark_hooks()
    assert hooks
    for module, attr, _ in hooks:
        assert hasattr(importlib.import_module(f"ppsg.{module}"), attr), (module, attr)


def test_every_unused_import_is_a_benchmark_hook():
    # The reverse check: an import the package keeps under ``# noqa: F401``
    # must be one the tracer rebinds in that module, so dropping a hook names
    # exactly the imports to delete with it.
    hooks = {(module, attr) for module, attr, _ in _benchmark_hooks()}
    marked, kept = 0, set()
    for path in Path(estimator_module.__file__).parent.glob("*.py"):
        source = path.read_text()
        lines = source.splitlines()
        marked += sum("# noqa: F401" in line for line in lines)
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if "# noqa: F401" in lines[alias.lineno - 1]:
                        kept.add((path.stem, alias.asname or alias.name))
    assert len(kept) == marked  # every marked line is one imported name
    assert kept - hooks == set()


def test_benchmark_selftest():
    # The benchmark checks every output it times; a library change that
    # breaks one of those checks fails here too, not only in a benchmark run.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "benchmarks/selftest.py"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
