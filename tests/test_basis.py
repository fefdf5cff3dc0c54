import itertools
import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsg.basis import (
    _TURN,
    BINOMIAL,
    MONOMIAL,
    CoefficientVector,
    _float_rows,
    _int64,
    _pascal_axis,
    _power_axis,
    _shift_scalars,
    apply_term,
    binomial_field,
    binomial_to_monomial_matrix,
    compute_lattice_point,
    compute_new_coordinate,
    phase_field,
    phase_turns,
    wrap_to_cell,
)
from ppsg.degrees import as_index, build_total_order

from oracles import (
    binomial_transform,
    exact_term_turns,
    monomial_field,
    multi_binom,
    traced_peak,
)


def eval_binomial(b: CoefficientVector, n: Sequence[int]) -> float:
    """Evaluate sum_m b_m C(n, m) at a single multi-index."""
    if b.basis != BINOMIAL:
        raise ValueError(f"expected binomial basis, got {b.basis!r}")
    n = as_index(n)
    return float(
        sum(bm * multi_binom(n, m) for bm, m in zip(b.values, b.degree_set))
    )


def eval_monomial(a: CoefficientVector, n: Sequence[int]) -> float:
    """Evaluate sum_m a_m n^m / m! at a single multi-index."""
    if a.basis != MONOMIAL:
        raise ValueError(f"expected monomial basis, got {a.basis!r}")
    n = as_index(n)
    total = 0.0
    for am, m in zip(a.values, a.degree_set):
        term = 1.0
        for nd, md in zip(n, m):
            term *= nd**md / math.factorial(md)
        total += am * term
    return float(total)


FIG3_T = np.array([[1.0, 0.7], [0.0, 1.0]])

M01 = build_total_order([(0,), (1,)])
M012 = build_total_order([(0,), (1,), (2,)])
M2D = build_total_order([(0, 0), (0, 1), (1, 0), (1, 1)])


def _cv(values, basis, M):
    return CoefficientVector(np.asarray(values, dtype=float), basis, M)


def test_eval_binomial_examples():
    b = _cv([0, 0, 1], BINOMIAL, M012)
    assert eval_binomial(b, (4,)) == pytest.approx(6.0)
    zero = _cv([0, 0, 0], BINOMIAL, M012)
    assert all(eval_binomial(zero, (n,)) == 0 for n in range(6))
    b2 = _cv([0.25, 0.1], BINOMIAL, M01)
    assert eval_binomial(b2, (3,)) == pytest.approx(0.55)


def test_eval_binomial_rejects_monomial():
    a = _cv([0.1, 0.1], MONOMIAL, M01)
    with pytest.raises(ValueError):
        eval_binomial(a, (1,))


def test_eval_monomial_examples():
    a = _cv([0, 0, 1], MONOMIAL, M012)
    assert eval_monomial(a, (4,)) == pytest.approx(8.0)  # 16 / 2!
    unit11 = _cv([0, 0, 0, 1], MONOMIAL, M2D)
    assert eval_monomial(unit11, (2, 3)) == pytest.approx(6.0)
    zero = _cv([0, 0, 0], MONOMIAL, M012)
    assert eval_monomial(zero, (5,)) == 0


def test_change_of_basis_identity_for_degree_one():
    T = binomial_to_monomial_matrix(M01)
    assert np.array_equal(T, np.eye(2))


def test_change_of_basis_quadratic_column():
    T = binomial_to_monomial_matrix(M012)
    assert T[1, 2] == pytest.approx(-0.5)
    assert T[2, 2] == 1.0
    assert T[0, 2] == 0.0


def test_change_of_basis_unit_diagonal_2d():
    T = binomial_to_monomial_matrix(M2D)
    assert np.allclose(np.diag(T), 1.0)
    assert np.allclose(np.tril(T, -1), 0.0)


def test_change_of_basis_requires_closure():
    with pytest.raises(ValueError):
        binomial_to_monomial_matrix(build_total_order([(2,)]))


def test_change_of_basis_matches_evaluation():
    # T must reproduce C(n, m) = sum_l t_{l,m} n^l / l! on the grid.
    for M, N in ((M012, (7,)), (M2D, (4, 5))):
        T = binomial_to_monomial_matrix(M)
        for j, m in enumerate(M.degrees):
            lhs = binomial_field(m, N)
            rhs = np.zeros(N)
            for i, ell in enumerate(M.degrees):
                rhs += T[i, j] * monomial_field(ell, N)
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_lattice_point_scalar_rounding():
    assert compute_lattice_point(np.array([0.7]), np.eye(1)) == pytest.approx([1.0])


def test_lattice_point_fig3_matrix():
    z = compute_lattice_point(np.array([1.0, 0.6]), FIG3_T)
    assert np.array_equal(z, [0.0, 1.0])
    residual = np.array([1.0, 0.6]) - FIG3_T @ z
    assert residual == pytest.approx([0.3, -0.4])
    assert np.all((residual >= -0.5) & (residual < 0.5))


def test_lattice_point_identity_inside_cell():
    a = np.array([0.2, -0.31])
    assert np.array_equal(compute_lattice_point(a, FIG3_T), [0.0, 0.0])


def test_lattice_point_residual_always_in_cell():
    rng = np.random.default_rng(20240915)
    for _ in range(10_000):
        size = rng.integers(1, 6)
        T = np.triu(rng.normal(scale=2.0, size=(size, size)), k=1) + np.eye(size)
        a = rng.normal(scale=5.0, size=size)
        z = compute_lattice_point(a, T)
        residual = a - T @ z
        assert np.all((residual >= -0.5) & (residual < 0.5))
        assert np.array_equal(z, np.round(z))


@pytest.mark.parametrize(
    "T,message",
    [
        (np.ones((2, 3)), r"expected a 2x2 matrix, got shape \(2, 3\)"),
        (np.ones(2), r"expected a 2x2 matrix, got shape \(2,\)"),
        (np.array([[1.0, 0.7], [0.0, 1.5]]), "diagonal != 1"),
        (np.array([[1.0, 0.7], [0.2, 1.0]]), "nonzeros below the diagonal"),
        (np.eye(3), r"expected a 2x2 matrix, got shape \(3, 3\)"),
    ],
    ids=["non-square", "one-axis", "diagonal", "below-diagonal", "size-mismatch"],
)
def test_lattice_point_rejects_a_matrix_that_is_not_unitriangular(T, message):
    with pytest.raises(ValueError, match=message):
        compute_lattice_point(np.array([0.3, 0.6]), T)


def test_binomial_to_monomial_matrix_is_read_only():
    T = binomial_to_monomial_matrix(M012)
    assert T.dtype == np.float64 and not T.flags.writeable


def test_compute_new_coordinate_rejects_monomial_coordinates():
    with pytest.raises(ValueError, match="expected binomial basis, got 'monomial'"):
        compute_new_coordinate(_cv([0.3, 0.6], MONOMIAL, M01), FIG3_T)


@pytest.mark.parametrize(
    "values,basis,message",
    [
        ([0.1, 0.2], "fourier", "unknown basis 'fourier'"),
        ([0.1, 0.2, 0.3], BINOMIAL, r"expected 2 values, got shape \(3,\)"),
        ([[0.1, 0.2]], MONOMIAL, r"expected 2 values, got shape \(1, 2\)"),
    ],
    ids=["unknown-basis", "too-long", "two-axes"],
)
def test_coefficient_vector_rejects_a_bad_basis_or_length(values, basis, message):
    with pytest.raises(ValueError, match=message):
        CoefficientVector(np.asarray(values), basis, M01)


def test_compute_new_coordinate_zero_and_identity():
    T = binomial_to_monomial_matrix(M01)
    zero = compute_new_coordinate(_cv([0, 0], BINOMIAL, M01), T)
    assert np.array_equal(zero.values, [0.0, 0.0])
    M0 = build_total_order([(0,)])
    T0 = binomial_to_monomial_matrix(M0)
    out = compute_new_coordinate(_cv([0.4], BINOMIAL, M0), T0)
    assert out.values == pytest.approx([0.4])
    assert out.basis == MONOMIAL


def test_compute_new_coordinate_fig3():
    a = compute_new_coordinate(_cv([0.3, 0.6], BINOMIAL, M01), FIG3_T)
    assert a.values == pytest.approx([0.02, -0.4])
    # a - T b must be a lattice vector of T Z^2
    shift = np.linalg.solve(FIG3_T, a.values - FIG3_T @ np.array([0.3, 0.6]))
    assert np.allclose(shift, np.round(shift), atol=1e-12)


def test_round_trip_phase_identity():
    rng = np.random.default_rng(77)
    for M, N in ((M012, (9,)), (M2D, (4, 6))):
        T = binomial_to_monomial_matrix(M)
        for _ in range(25):
            b = _cv(rng.uniform(-0.5, 0.5, len(M)), BINOMIAL, M)
            a = compute_new_coordinate(b, T)
            assert np.all((a.values >= -0.5) & (a.values < 0.5))
            phase_b = np.exp(2j * np.pi * phase_field(b, N))
            phase_a = np.exp(2j * np.pi * phase_field(a, N))
            assert np.max(np.abs(phase_a - phase_b)) < 1e-9


def test_binomial_transform_basis_vectors():
    x = binomial_field((2,), (5,))
    assert binomial_transform(x, (2,)) == pytest.approx(1.0)
    assert binomial_transform(x, (1,)) == pytest.approx(0.0)


def test_binomial_transform_2d():
    x = 3.0 * binomial_field((1, 1), (3, 3))
    assert binomial_transform(x, (1, 1)) == pytest.approx(3.0)


def test_binomial_transform_window_guard():
    with pytest.raises(ValueError):
        binomial_transform(np.zeros((2,)), (2,))


@pytest.mark.parametrize("N", [(4,), (7,), (12,)])
def test_inversion_recovers_random_coefficients(N):
    rng = np.random.default_rng(5)
    for _ in range(30):
        b = _cv(rng.uniform(-0.5, 0.5, len(M012)), BINOMIAL, M012)
        x = phase_field(b, N)
        for m in M012.degrees:
            assert abs(binomial_transform(x, m) - b[m]) < 1e-10


def test_inversion_recovers_random_coefficients_2d():
    rng = np.random.default_rng(6)
    for _ in range(20):
        b = _cv(rng.uniform(-0.5, 0.5, len(M2D)), BINOMIAL, M2D)
        x = phase_field(b, (3, 5))
        for m in M2D.degrees:
            assert abs(binomial_transform(x, m) - b[m]) < 1e-10


def test_wrap_to_cell_boundaries():
    assert wrap_to_cell(0.5) == -0.5
    assert wrap_to_cell(-0.5) == -0.5
    assert wrap_to_cell(1.3) == pytest.approx(0.3, abs=1e-12)
    v = wrap_to_cell(np.array([0.0, 0.49999, -0.50001, 7.25]))
    assert np.all((v >= -0.5) & (v < 0.5))


def test_wrap_to_cell_half_ulp_edge():
    # floor(v + 1/2) ties upward when v is the largest double below 1/2;
    # the result must still land inside the half-open cell.
    edge = np.nextafter(0.5, 0.0)
    for v in (edge, edge + 1.0, edge - 2.0, -np.nextafter(0.5, 1.0)):
        out = float(wrap_to_cell(v))
        assert -0.5 <= out < 0.5, (v, out)


def test_integer_shift_ambiguity():
    rng = np.random.default_rng(8)
    for _ in range(20):
        b = rng.uniform(-0.5, 0.5, len(M2D))
        z = rng.integers(-3, 4, len(M2D)).astype(float)
        x1 = phase_field(_cv(b, BINOMIAL, M2D), (4, 4))
        x2 = phase_field(_cv(b + z, BINOMIAL, M2D), (4, 4))
        diff = x2 - x1
        assert np.allclose(diff, np.round(diff), atol=1e-9)


def test_coefficient_vector_json_roundtrip():
    b = _cv([0.25, -0.1], BINOMIAL, M01)
    data = b.to_json()
    assert list(data.keys()) == ["basis", "degrees", "values"]
    back = CoefficientVector.from_json(data)
    assert back.basis == BINOMIAL
    assert np.array_equal(back.values, b.values)
    assert back.degree_set == M01


@pytest.mark.parametrize(
    "N", [(3000,), (2**20,), (700, 9), (40, 5, 33), (3 * 2**15 + 5,), (100, 1000)], ids=str
)
def test_integer_field_is_exact_modulo_2_64(N):
    # One turn of a term is its integer field: C(n, m) and n^m modulo 2^64
    # (n^m / m! with a coefficient of m! turns), against math.comb and
    # Python powers, for every degree of total order <= 4; C(2^20, 4) is
    # about 2^75, so the wrapping sums and products are checked where they
    # wrap.  The last two windows are cut into blocks, of 2^15 and 32 rows,
    # that do not divide the first axis.
    rng = np.random.default_rng(len(N))
    points = [tuple(int(rng.integers(Nd)) for Nd in N) for _ in range(1500)]
    points += [(0,) * len(N), tuple(Nd - 1 for Nd in N)]
    if N == (3000,):
        points = [(n,) for n in range(3000)]
    one = np.array([_TURN])
    for m in itertools.product(range(5), repeat=len(N)):
        if sum(m) > 4:
            continue
        pascal, power = np.zeros((2, 1) + N, np.int64)
        apply_term(pascal, one, m, BINOMIAL, np.add)
        apply_term(power, math.prod(map(math.factorial, m)) * one, m, MONOMIAL, np.add)
        for n in points:
            want = math.prod(math.comb(nd, md) for nd, md in zip(n, m))
            assert int(pascal[0][n]) % 2**64 == want % 2**64, (m, n)
            want = math.prod(nd**md for nd, md in zip(n, m))
            assert int(power[0][n]) % 2**64 == want % 2**64, (m, n)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.sampled_from([BINOMIAL, MONOMIAL]),
    st.integers(0, 5),
    st.integers(0, 2**23),
    st.integers(1, 300),
    st.integers(0, 40),
)
def test_shifted_axes_are_exact_modulo_2_64(basis, m, a, count, spare):
    # A block's rows [a, a + count) of C(n, m) or n^m, summed from the
    # shift scalars times cached axes of count + spare samples, against
    # Python integers: from a = 0 past 2^22, where C(n, 5) and n^5 pass
    # 2^64, so the scalars and the wrapping products and sums are checked
    # where they wrap.
    axis = _pascal_axis if basis == BINOMIAL else _power_axis
    scalars = _shift_scalars(a, m, basis)
    assert scalars[m] == 1
    got = sum(_int64(s) * axis(count + spare, i)[:count] for i, s in enumerate(scalars))
    exact = math.comb if basis == BINOMIAL else lambda n, m: n**m
    assert got.dtype == np.int64 and got.shape == (count,)
    assert got.view(np.uint64).tolist() == [exact(n, m) % 2**64 for n in range(a, a + count)]


@pytest.mark.parametrize("m", range(4))
def test_pascal_axis_is_built_in_one_array(m):
    # In-place cumulative sums: the traced peak is the result alone.
    N = 2**20
    assert traced_peak(_pascal_axis.__wrapped__, N, m) <= 8 * N + 2**16


@pytest.mark.parametrize("basis", [BINOMIAL, MONOMIAL])
@pytest.mark.parametrize("N", [(2**18,), (301, 57), (23, 9, 6)])
def test_float_rows_are_rows_of_the_whole_field(N, basis):
    # The kernel builds a sub-turn remainder's float factor over one block's
    # rows.  Each value is formed from its own index alone, so the rows are
    # the whole field's bit for bit, also where C(n, 3) and n^3 / 6 round.
    whole_field = binomial_field if basis == BINOMIAL else monomial_field
    rng = np.random.default_rng(len(N))
    spans = [(0, N[0]), (N[0] - 1, N[0])]
    spans += [tuple(sorted(rng.choice(N[0] + 1, 2, replace=False))) for _ in range(6)]
    for m in itertools.product(range(4), repeat=len(N)):
        if sum(m) > 3:
            continue
        whole = whole_field(m, N)
        for a, b in spans:
            rows = _float_rows(m, N, basis, a, b)
            compact = tuple(Nd if md else 1 for Nd, md in zip((b - a,) + N[1:], m))
            assert rows.shape == compact
            assert np.broadcast_to(rows, (b - a,) + N[1:]).tobytes() == whole[a:b].tobytes()


@pytest.mark.parametrize(
    "degrees, N",
    [([(0,), (1,), (2,), (3,)], (4096,)), ([(0, 0), (1, 0), (1, 2)], (40, 30))],
    ids=["1-D", "2-D"],
)
def test_phase_turns_match_exact_integer_turns(degrees, N):
    # Each term is exact but for a coefficient fraction below 2^-12 cycle,
    # whose float64 remainder is within 1 + F * 2^-51 turns of the exact
    # one, F = C(n, m); whole turns must match exactly.
    M = build_total_order(degrees)
    rows = [1e-9, -3e-10, 2.0**-70, 0.3, 7 + 2.0**-20, -0.5]
    values = np.array([np.roll(rows, j)[: len(M)] for j in range(len(rows))])
    got = phase_turns(values, M, N).view(np.uint64)
    F = [binomial_field(m, N) for m in M.degrees]
    for row, turns in zip(values, got):
        want = sum(exact_term_turns(b, m, N).view(np.uint64) for b, m in zip(row, M.degrees))
        gap = (turns - want).view(np.int64).astype(float)
        inexact = [abs(b - np.rint(b)) < 2.0**-12 and b != np.rint(b) for b in row]
        limit = sum(1 + f * 2.0**-51 for f, r in zip(F, inexact) if r)
        assert np.all(np.abs(gap) <= limit), row


def test_phase_turns_reject_a_non_finite_coefficient():
    M = build_total_order([(0,), (1,)])
    with pytest.raises(ValueError, match=r"coefficient of degree \(0,\) is not finite: nan"):
        phase_turns(np.array([[0.1, 0.2], [np.nan, 0.2]]), M, (8,))
