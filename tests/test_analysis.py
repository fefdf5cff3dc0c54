import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

import ppsg.analysis as analysis_module
import ppsg.estimator as estimator_module
from ppsg.analysis import (
    _gram_axis,
    _projection,
    crb,
    crb_grid,
    fisher_matrix,
    outlier_predicate,
    reconstruction_bound,
)
from ppsg.basis import binomial_field
from ppsg.degrees import as_index, build_total_order, downward_closure
from ppsg.estimator import EstimatorConfig, estimate
from ppsg.harness import ExperimentConfig, run_sweep
from ppsg.signal import RealField, Signal

from oracles import (
    _ortho_axis_int,
    binom,
    decomposition,
    exact_inverse,
    finite_difference,
    integer_gram,
    naive_penalty,
    orthogonal_poly_field,
    run_python,
    tr_kj,
    traced_peak,
)


def orthogonal_poly(k: Sequence[int], N: Sequence[int], n: Sequence[int]) -> int:
    """q_k(n): product over dimensions of the 1-D orthogonal polynomials."""
    k, N, n = as_index(k), as_index(N), as_index(n)
    if not (len(k) == len(N) == len(n)):
        raise ValueError("k, N, n must have equal lengths")
    result = 1
    for kd, Nd, nd in zip(k, N, n):
        axis = _ortho_axis_int(kd, Nd)
        if not 0 <= nd < Nd:
            raise ValueError(f"sample index {nd} outside window [{Nd}]")
        result *= axis[nd]
    return result


M0 = build_total_order([(0,)])
M01 = build_total_order([(0,), (1,)])


def test_fisher_scalar_window():
    J = fisher_matrix(M0, (16,), 1.0)
    assert J.matrix[0, 0] == pytest.approx(8 * np.pi**2 * 16)


def test_fisher_gram_entries():
    J = fisher_matrix(M01, (4,), 2.0)
    expected = 8 * np.pi**2 * 2.0 * np.array([[4.0, 6.0], [6.0, 14.0]])
    assert np.allclose(J.matrix, expected)


def test_fisher_snr_linearity():
    J1 = fisher_matrix(M01, (8,), 3.0)
    J2 = fisher_matrix(M01, (8,), 6.0)
    assert np.allclose(J2.matrix, 2.0 * J1.matrix)


@pytest.mark.parametrize(
    "degrees, N",
    [
        ([(0,), (1,), (2,)], (4096,)),
        ([(0,), (1,), (2,), (3,)], (1024,)),
        ([(0,), (2,), (5,)], (300,)),
        ([(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)], (40, 33)),
        ([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)], (17, 9)),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 0, 2)], (6, 5, 4)),
    ],
)
def test_fisher_matrix_is_the_rounded_integer_gram(degrees, N):
    # Each entry is the exact integer Gram rounded once, at any window: B^T B
    # in float64 was up to 2.8e-15 relative off where its sums pass 2^53, as
    # at (4096,) with degrees 0-2 and (1024,) with 0-3.
    M = build_total_order(degrees)
    gram = np.array([[float(v) for v in row] for row in integer_gram(M, N)])
    assert fisher_matrix(M, N, 3.0).matrix.tobytes() == (8 * np.pi**2 * 3.0 * gram).tobytes()


def test_crb_holds_no_window_sized_array():
    # The Fisher matrix is summed axis by axis, so no field is built: the
    # design matrix of degrees 0-3 took 128 MiB at 2^22 samples.
    M = build_total_order([(0,), (1,), (2,), (3,)])
    crb(M, (64,), 1.0)  # any first-call set-up
    assert traced_peak(crb, M, (2**22,), 1.0) < 2**20


@pytest.mark.parametrize("snr", [-1.0, 0.0, np.nan, np.inf, 1e-320])
def test_fisher_matrix_rejects_a_bad_snr(snr):
    # Each gave a negative, zero or NaN matrix, or CRBs of inf, and crb then
    # failed with a message about the window or about infs and NaNs.
    for call in (fisher_matrix, crb):
        with pytest.raises(ValueError, match=f"snr {snr} is not a finite, positive SNR"):
            call(M01, (8,), snr)


@pytest.mark.parametrize(
    "call",
    [
        lambda: fisher_matrix(build_total_order([(0,), (400,)]), (1000,), 1.0),
        lambda: crb(build_total_order([(0,), (1,)]), (4096,), 1e300),
        lambda: estimate(
            Signal((1000,), np.ones(1000, complex)),
            EstimatorConfig(build_total_order([(0,), (200,)])),
        ),
    ],
    ids=["Gram past float64", "SNR scale past float64", "estimate of non-closed {0, 200}"],
)
def test_fisher_matrix_past_float64_is_a_validation_error(call):
    # The Gram entry of C(n, 400) at N = 1000 exceeds 1e308: its conversion
    # raised OverflowError, and an infinite scaled matrix failed the float
    # Cholesky factorization that once solved the non-closed projection.
    with pytest.raises(ValueError, match=r"on window \(\d+,\) overflow the Fisher matrix"):
        call()


def test_crb_past_float64_is_a_validation_error():
    # At an SNR of 1e-307 the CRB of degrees 0-8 on 9 samples exceeds
    # float64: a float solve wrote NaN and inf entries, and rounding the
    # exact inverse raised OverflowError.
    M = build_total_order([(d,) for d in range(9)])
    with pytest.raises(ValueError, match=r"on window \(9,\) overflow the CRB"):
        crb(M, (9,), 1e-307)


def test_crb_grid_inverts_once_and_matches_each_point(monkeypatch):
    # The exact inverse does not depend on the SNR, so a grid inverts the
    # Gram once and scales it per point: bit for bit the CRB of each point
    # alone.  31 points of 2-D total degree 4 at 64x64 inverted 31 times.
    M = build_total_order([(i, j) for i in range(5) for j in range(5) if i + j <= 4])
    N = (64, 64)
    snrs = [10 ** (db / 10) for db in range(-10, 21)]
    want = [crb(M, N, snr) for snr in snrs]
    calls = []
    original = analysis_module._exact_inverse
    monkeypatch.setattr(analysis_module, "_exact_inverse", lambda g: calls.append(g) or original(g))
    got = crb_grid(M, N, snrs)
    assert len(calls) == 1
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_crb_grid_raises_at_its_first_failing_point():
    # Each point is checked and scaled in turn, as point-by-point calls
    # would: 1e-307 overflows the CRB of degrees 0-8 on 9 samples, and 1e306
    # their Fisher matrix.
    M = build_total_order([(d,) for d in range(9)])
    with pytest.raises(ValueError, match=r"on window \(9,\) overflow the CRB"):
        crb_grid(M, (9,), [1.0, 1e-307, 1e306])
    with pytest.raises(ValueError, match=r"on window \(9,\) overflow the Fisher matrix"):
        crb_grid(M, (9,), [1.0, 1e306, 1e-307])


def test_crb_scalar():
    out = crb(M0, (16,), 2.0)
    assert out[0, 0] == pytest.approx(1.0 / (8 * np.pi**2 * 2.0 * 16))


@pytest.mark.parametrize(
    "degrees, N",
    [
        ([(0,), (1,), (2,), (3,)], (2**20,)),
        ([(i, j) for i in range(5) for j in range(5) if i + j <= 4], (64, 48)),
    ],
    ids=["1-D 2^20", "2-D total degree 4"],
)
def test_crb_is_the_correctly_rounded_exact_inverse(degrees, N):
    # The Fisher matrix at 2^20 samples with degrees 0-3 has condition
    # number 1.2e32; a float Cholesky solve put the CRB diagonal 6e-15 to
    # 5e-14 relative off the exact inverse of the integer Gram.
    M = build_total_order(degrees)
    snr = 10.0
    gram = [[math.prod(map(_gram_axis, N, m, k)) for k in M.degrees] for m in M.degrees]
    scale = Fraction(8 * np.pi**2 * snr)  # the float64 factor fisher_matrix forms
    want = [[float(v / scale) for v in row] for row in exact_inverse(gram)]
    assert crb(M, N, snr).tolist() == want


@pytest.mark.parametrize(
    "degrees, N",
    [
        ([(0,), (1,), (3,)], (2**20,)),
        ([(0,), (5,), (9,)], (4096,)),
        ([(0, 0), (1, 0), (0, 1), (2, 1)], (40, 33)),
    ],
    ids=["{0,1,3} at 2^20", "{0,5,9} at 4096", "2-D {0,(1,0),(0,1),(2,1)}"],
)
def test_projection_is_the_correctly_rounded_exact_solve(degrees, N):
    # P = J_MM^-1 J_MR, whose SNR scale cancels, from the closure's integer
    # Gram inverted exactly (the adjugate oracle), each entry rounded once.
    M = build_total_order(degrees)
    closure = downward_closure(M)
    C = closure.degrees
    gram = [[math.prod(map(_gram_axis, N, m, k)) for k in C] for m in C]
    rows = [closure.position(m) for m in M.degrees]
    rest = [i for i in range(len(closure)) if i not in rows]
    inverse = exact_inverse([[gram[i][j] for j in rows] for i in rows])
    want = [[float(sum(v * gram[i][r] for v, i in zip(row, rows))) for r in rest]
            for row in inverse]
    got_rows, got_rest, P = _projection(M, closure, N)
    assert (list(got_rows), list(got_rest)) == (rows, rest)
    assert P.tolist() == want
    assert not P.flags.writeable


def test_non_closed_sweep_builds_the_projection_once(monkeypatch):
    # P depends on the set and the window alone, so a sweep of 2 SNR points
    # in chunks of 8 trials solves the Gram once, for all 6 chunks.
    M = build_total_order([(0,), (2,)])
    cfg = ExperimentConfig(
        degree_set=M, window=(1024,), snr_db_grid=(0.0, 10.0), trials=20,
        parameter_mode="zero", estimator_config=EstimatorConfig(M), master_seed=3,
    )
    _projection.cache_clear()
    chunks, solves = [], []
    solve = analysis_module._exact_inverse
    monkeypatch.setattr(analysis_module, "_exact_inverse", lambda *a: solves.append(a) or solve(*a))
    project = lambda *a: chunks.append(a) or _projection(*a)
    monkeypatch.setattr(estimator_module, "_projection", project)
    run_sweep(cfg)
    assert (len(chunks), len(solves)) == (6, 1)


def test_crb_inverse_contract():
    M = build_total_order([(0, 0), (0, 1), (1, 0), (1, 1)])
    J = fisher_matrix(M, (5, 6), 4.0)
    out = crb(M, (5, 6), 4.0)
    assert np.allclose(out @ J.matrix, np.eye(4), atol=1e-9)


def test_constrained_crb_loewner_order():
    # Keeping nuisance estimates (naive) is never better than re-solving the
    # constrained problem: E^T J'^-1 E - (E^T J' E)^-1 is PSD and nonzero.
    M3 = build_total_order([(3,)])
    closure = downward_closure(M3)
    J = fisher_matrix(closure, (64,), 1.0).matrix
    sel = np.zeros((4, 1))
    sel[closure.position((3,)), 0] = 1.0
    naive = sel.T @ np.linalg.inv(J) @ sel
    constrained = np.linalg.inv(sel.T @ J @ sel)
    gap = naive - constrained
    assert np.all(np.linalg.eigvalsh(gap) >= -1e-15)
    assert gap[0, 0] > 0


def test_orthogonal_poly_linear_samples():
    assert [orthogonal_poly((1,), (4,), (n,)) for n in range(4)] == [-3, -1, 1, 3]


def test_orthogonal_poly_degree_zero():
    assert all(orthogonal_poly((0,), (5,), (n,)) == 1 for n in range(5))


def test_orthogonal_poly_norm():
    q1 = orthogonal_poly_field((1,), (4,))
    assert int(np.sum(q1 * q1)) == 20
    assert binom(5, 3) * binom(2, 1) == 20


def test_orthogonality_integer_exact_1d():
    for N in range(2, 13):
        fields = [orthogonal_poly_field((k,), (N,)) for k in range(N)]
        for k, kp in itertools.product(range(N), repeat=2):
            got = int(round(float(np.sum(fields[k] * fields[kp]))))
            expected = binom(N + k, 2 * k + 1) * binom(2 * k, k) if k == kp else 0
            assert got == expected, (N, k, kp)


def test_orthogonality_integer_exact_2d():
    for N0, N1 in itertools.product(range(2, 7), repeat=2):
        ks = list(itertools.product(range(N0), range(N1)))
        fields = {k: orthogonal_poly_field(k, (N0, N1)) for k in ks}
        for k, kp in itertools.product(ks, repeat=2):
            got = int(round(float(np.sum(fields[k] * fields[kp]))))
            expected = 0
            if k == kp:
                expected = (
                    binom(N0 + k[0], 2 * k[0] + 1)
                    * binom(2 * k[0], k[0])
                    * binom(N1 + k[1], 2 * k[1] + 1)
                    * binom(2 * k[1], k[1])
                )
            assert got == expected


def test_orthogonal_poly_matches_difference_definition():
    # The production closed form equals the k-th difference of
    # C(n, k) C(n - N, k) on the full grid.
    for N in range(2, 11):
        for k in range(N):
            extended = np.array(
                [float(binom(n, k) * binom(n - N, k)) for n in range(N + k)]
            )
            diffed = finite_difference(RealField((N + k,), extended), (k,))
            closed = [orthogonal_poly((k,), (N,), (n,)) for n in range(N)]
            assert np.allclose(diffed.data[:N], closed)


def test_inner_product_identity_matches_brute_force():
    for N in range(3, 9):
        M = build_total_order([(m,) for m in range(min(4, N - 1) + 1)])
        pair = decomposition(M, (N,))
        for i, k in enumerate(M.degrees):
            qk = orthogonal_poly_field(k, (N,))
            for j, m in enumerate(M.degrees):
                brute = float(np.sum(binomial_field(m, (N,)) * qk))
                assert pair.S[i, j] == pytest.approx(brute, abs=1e-9)


def test_decomposition_gram_is_diagonal():
    M = build_total_order([(0, 0), (0, 1), (1, 0), (1, 1)])
    pair = decomposition(M, (5, 4))
    G = pair.Q @ pair.Q.T
    assert np.allclose(G, np.diag(np.diag(G)))
    for i, k in enumerate(M.degrees):
        expected = (
            binom(5 + k[0], 2 * k[0] + 1)
            * binom(2 * k[0], k[0])
            * binom(4 + k[1], 2 * k[1] + 1)
            * binom(2 * k[1], k[1])
        )
        assert G[i, i] == pytest.approx(expected)


def test_decomposition_s_upper_triangular():
    M = build_total_order([(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2)])
    pair = decomposition(M, (6, 6))
    assert np.allclose(np.tril(pair.S, -1), 0.0)


def test_fisher_decomposition_residual():
    cases = [
        (build_total_order([(m,) for m in range(4)]), (16,)),
        (
            build_total_order(
                [m for m in itertools.product(range(4), range(4)) if sum(m) <= 3]
            ),
            (16, 16),
        ),
    ]
    for M, N in cases:
        pair = decomposition(M, N)
        J = fisher_matrix(M, N, 1.0).matrix
        recon = 8 * np.pi**2 * (pair.S.T @ np.linalg.solve(pair.Q @ pair.Q.T, pair.S))
        assert np.linalg.norm(recon - J) < 1e-8 * np.linalg.norm(J)


def test_decomposition_identity_check_survives_optimize():
    # python -O strips asserts; the identity check must still raise there.
    code = """
import dataclasses
import oracles as analysis
from ppsg.degrees import build_total_order

exact = analysis.fisher_matrix

def perturbed(M, N, snr):
    J = exact(M, N, snr)
    return dataclasses.replace(J, matrix=J.matrix * (1.0 + 1e-6))

analysis.fisher_matrix = perturbed
print(__debug__)
try:
    analysis.decomposition(build_total_order([(0,), (1,), (2,)]), (8,))
except RuntimeError as exc:
    print(exc)
"""
    proc = run_python(code, "-O")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["False", "Fisher decomposition identity violated"]


def test_decomposition_requires_closure():
    with pytest.raises(ValueError):
        decomposition(build_total_order([(2,)]), (8,))


def test_reconstruction_bound_values():
    assert reconstruction_bound(M01, 10**1.5) == pytest.approx(0.031622776, abs=1e-8)
    assert reconstruction_bound(M0, 1.0) == 0.5
    # independent of the window by construction: no N argument exists
    with pytest.raises(ValueError):
        reconstruction_bound(M0, 0.0)


def test_tr_kj_identity_and_linearity():
    M = build_total_order([(0,), (1,), (2,)])
    J = fisher_matrix(M, (12,), 2.0)
    K = np.linalg.inv(J.matrix)
    assert tr_kj(K, J) == pytest.approx(3.0, abs=1e-9)
    assert tr_kj(2 * K, J) == pytest.approx(6.0, abs=1e-9)


def test_tr_kj_log_det_inequality():
    rng = np.random.default_rng(21)
    M = build_total_order([(0,), (1,)])
    J = fisher_matrix(M, (8,), 1.0)
    Jinv = np.linalg.inv(J.matrix)
    for _ in range(20):
        p = rng.normal(size=(2, 1))
        K = Jinv + p @ p.T
        value = tr_kj(K, J)
        bound = 2 + np.log(np.linalg.det(K @ J.matrix))
        assert value >= bound - 1e-9


def test_tr_kj_shape_guard():
    J = fisher_matrix(M01, (8,), 1.0)
    with pytest.raises(ValueError):
        tr_kj(np.eye(3), J)


def test_naive_penalty_values():
    assert naive_penalty(3) == 400.0
    assert naive_penalty(0) == 1.0
    assert naive_penalty(1) == 4.0
    with pytest.raises(ValueError):
        naive_penalty(-1)


def test_outlier_predicate_basic():
    quiet = RealField((5,), np.zeros(5))
    assert not outlier_predicate(quiet, 0.3)
    push = RealField((5,), np.array([0.0, 0.011, 0.0, 0.0, 0.0]))
    assert outlier_predicate(push, 0.49)
    assert not outlier_predicate(push, 0.0)


def test_wrap_probability_decays_with_snr():
    cfg = ExperimentConfig(
        degree_set=M01,
        window=(64,),
        snr_db_grid=(0.0, 5.0, 10.0),
        trials=4000,
        parameter_mode="zero",
        estimator_config=EstimatorConfig(M01),
        master_seed=101,
    )
    result = run_sweep(cfg)
    probs = [r.wrap_probability for r in result.records]
    assert probs[0] > probs[1] > probs[2]


def test_fisher_matches_score_covariance():
    # Empirical covariance of the log-likelihood gradient over noise draws
    # reproduces the Fisher matrix within three standard errors.
    rng = np.random.default_rng(23)
    N, snr, draws = (8,), 1.0, 100_000
    B = np.column_stack([binomial_field(m, N) for m in M01.degrees])
    w = (rng.standard_normal((draws, 8)) + 1j * rng.standard_normal((draws, 8))) * np.sqrt(
        0.5 / snr
    )
    scores = 4 * np.pi * snr * (w.imag @ B)
    J = fisher_matrix(M01, N, snr).matrix
    for i in range(2):
        for j in range(2):
            prods = scores[:, i] * scores[:, j]
            se = prods.std(ddof=1) / np.sqrt(draws)
            assert abs(prods.mean() - J[i, j]) < 3 * se
