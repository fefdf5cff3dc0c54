import io

import numpy as np
import pytest

from ppsg.basis import BINOMIAL, CoefficientVector, binomial_field
from ppsg.degrees import build_total_order
from ppsg.signal import (
    RealField,
    Signal,
    add_noise,
    complex_noise,
    phase_diff_multi,
    read_signal,
    synthesize,
    write_signal,
)

from oracles import (
    exact_signal,
    finite_difference,
    finite_difference_stencil,
    phase_diff,
    principal_arg,
)


def arg_field(s: Signal) -> RealField:
    """Componentwise argument in [-pi, pi), arg(0) = 0."""
    return RealField(s.window, principal_arg(s.data))


M01 = build_total_order([(0,), (1,)])


def _cv(values, M):
    return CoefficientVector(np.asarray(values, dtype=float), BINOMIAL, M)


def test_synthesize_zero_coefficients():
    M0 = build_total_order([(0,)])
    s = synthesize(_cv([0.0], M0), (5,))
    assert np.allclose(s.data, 1.0)


def test_synthesize_constant_quarter_turn():
    M0 = build_total_order([(0,)])
    s = synthesize(_cv([0.25], M0), (4,))
    assert np.allclose(s.data, 1j)


def test_synthesize_pure_frequency():
    s = synthesize(_cv([0.0, 0.25], M01), (4,))
    assert np.allclose(s.data, [1, 1j, -1, -1j])


def test_synthesize_window_guard():
    M012 = build_total_order([(0,), (1,), (2,)])
    with pytest.raises(ValueError):
        synthesize(_cv([0, 0, 0.1], M012), (2,))


@pytest.mark.parametrize(
    "M, N",
    [
        (build_total_order([(0,), (1,), (2,), (3,)]), (2**20,)),
        (build_total_order([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]), (512, 512)),
    ],
    ids=["2^20 degrees 0-3", "512x512 total degree 2"],
)
def test_synthesize_matches_the_exact_signal(M, N):
    # The phase is summed in exact turns, so only the exp rounds it; a
    # float64 b * C(n, m) missed these draws by 0.50 cycle at 2^20 with
    # degree 3 and by 1.8e-11 at 512x512.
    b = np.random.default_rng(len(N)).uniform(-0.5, 0.5, len(M))
    s = synthesize(_cv(b, M), N)
    gap = np.angle(s.data * np.conj(exact_signal(b, M, N))) / (2 * np.pi)
    assert np.max(np.abs(gap)) <= 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_synthesize_rejects_a_non_finite_coefficient(bad):
    # In int64 turns a NaN would become a finite, wrong phase.
    with pytest.raises(ValueError, match=r"coefficient of degree \(1,\) is not finite"):
        synthesize(_cv([0.25, bad], M01), (8,))


def test_synthesize_a_huge_whole_number_of_cycles_exactly():
    # 1e300 is an integer, so every term is a whole number of cycles; the
    # float64 phase 1e300 * (1 - n) gave the exp of a huge argument: noise.
    s = synthesize(_cv([1e300, -1e300], M01), (64,))
    assert np.array_equal(s.data, np.ones(64, complex))


def test_add_noise_high_snr_limit():
    s = synthesize(_cv([0.1, 0.2], M01), (16,))
    noisy = add_noise(s, 1e18, np.random.default_rng(0))
    assert np.max(np.abs(noisy.data - s.data)) < 1e-8


def test_add_noise_deterministic():
    s = synthesize(_cv([0.1, 0.2], M01), (32,))
    a = add_noise(s, 10.0, np.random.default_rng(123))
    b = add_noise(s, 10.0, np.random.default_rng(123))
    assert np.array_equal(a.data, b.data)


def test_add_noise_variance():
    s = Signal((100_000,), np.ones(100_000, dtype=complex))
    snr = 4.0
    noisy = add_noise(s, snr, np.random.default_rng(7))
    sample_var = np.mean(np.abs(noisy.data - s.data) ** 2)
    assert abs(sample_var - 1.0 / snr) < 0.02 / snr


def test_phase_diff_constant_signal():
    c = np.exp(0.3j)
    s = Signal((6,), np.full(6, c))
    out = phase_diff(s, 0, 1)
    assert out.window == (5,)
    assert np.allclose(out.data, 1.0)


def test_phase_diff_pure_frequency():
    b1 = 0.15
    s = synthesize(_cv([0.0, b1], M01), (12,))
    out = phase_diff(s, 0, 1)
    assert np.allclose(out.data, np.exp(2j * np.pi * b1))


def test_phase_diff_lag_two():
    s = Signal((3,), np.array([1, 1j, -1], dtype=complex))
    out = phase_diff(s, 0, 2)
    assert out.window == (1,)
    assert out.data[0] == pytest.approx(-1)


def test_phase_diff_window_guard():
    s = Signal((3,), np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        phase_diff(s, 0, 3)


def test_phase_diff_multi_identity():
    s = Signal((4, 4), np.exp(1j * np.random.default_rng(1).normal(size=(4, 4))))
    out = phase_diff_multi(s, (0, 0))
    assert np.array_equal(out.data, s.data)


def test_zero_order_differences_return_fresh_arrays():
    # Writing into a zero-order result must leave the input untouched.
    s = Signal((3, 4), np.exp(1j * np.arange(12.0)).reshape(3, 4))
    x = RealField((5,), np.arange(5.0))
    before_s, before_x = s.data.copy(), x.data.copy()
    phase_diff_multi(s, (0, 0)).data[...] = 0
    finite_difference(x, (0,)).data[...] = 0
    assert np.array_equal(s.data, before_s)
    assert np.array_equal(x.data, before_x)


def test_phase_diff_multi_extracts_top_coefficient():
    M = build_total_order([(0, 0), (0, 1), (1, 0), (1, 1)])
    rng = np.random.default_rng(3)
    b = rng.uniform(-0.5, 0.5, 4)
    s = synthesize(_cv(b, M), (5, 6))
    out = phase_diff_multi(s, (1, 1))
    assert out.window == (4, 5)
    top = b[M.position((1, 1))]
    assert np.allclose(out.data, np.exp(2j * np.pi * top), atol=1e-12)


def test_phase_diff_multi_commutes():
    rng = np.random.default_rng(4)
    s = Signal((6, 7), np.exp(1j * rng.normal(size=(6, 7))))
    a = phase_diff_multi(phase_diff_multi(s, (1, 0)), (0, 2))
    b = phase_diff_multi(phase_diff_multi(s, (0, 2)), (1, 0))
    assert np.allclose(a.data, b.data, atol=1e-12)


def test_arg_field_conventions():
    s = Signal((4,), np.array([-1 + 0j, 1 + 0j, 1j, 0j]))
    a = arg_field(s)
    assert a.data[0] == pytest.approx(-np.pi)
    assert a.data[1] == 0.0
    assert a.data[2] == pytest.approx(np.pi / 2)
    assert a.data[3] == 0.0


def test_principal_arg_scalar():
    assert principal_arg(-1 + 0j) == pytest.approx(-np.pi)
    assert principal_arg(0j) == 0.0
    assert principal_arg(complex(-0.0, 0.0)) == 0.0


@pytest.mark.parametrize("N", [(64,), (10, 9), (3, 4, 5)], ids=str)
def test_complex_noise_draws_the_real_parts_first(N):
    # One (1, 2, *N) draw formed by the helper the sweeps use, bit for bit
    # the two draws of the documented formula.
    snr = 10.0 ** 0.7
    got = complex_noise(N, snr, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    want = np.sqrt(0.5 / snr) * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    assert got.shape == N
    assert got.tobytes() == want.tobytes()


def test_finite_difference_pascal_rule():
    # Differencing a binomial field shifts its degree down.
    N = (9,)
    x = RealField(N, binomial_field((4,), N).copy())
    out = finite_difference(x, (2,))
    expected = binomial_field((2,), (7,))
    assert np.allclose(out.data, expected, atol=1e-9)


def test_finite_difference_identity_and_constant():
    x = RealField((5,), np.arange(5.0))
    assert np.array_equal(finite_difference(x, (0,)).data, x.data)
    const = RealField((4, 4), np.full((4, 4), 2.5))
    assert np.allclose(finite_difference(const, (1, 1)).data, 0.0)


def test_finite_difference_matches_stencil():
    rng = np.random.default_rng(5)
    x = RealField((7, 6), rng.normal(size=(7, 6)))
    for k in [(1, 0), (2, 1), (3, 2)]:
        fast = finite_difference(x, k)
        slow = finite_difference_stencil(x, k)
        assert fast.window == slow.window
        assert np.allclose(fast.data, slow.data, atol=1e-10)


def test_finite_difference_window_guard():
    x = RealField((3,), np.zeros(3))
    with pytest.raises(ValueError):
        finite_difference(x, (3,))


def test_operator_relation():
    # Phase differences of exp(j 2 pi x) equal exp(j 2 pi diff(x)) samplewise.
    rng = np.random.default_rng(6)
    for k in [(1,), (2,), (3,)]:
        x = RealField((16,), rng.normal(size=16))
        s = Signal((16,), np.exp(2j * np.pi * x.data))
        lhs = phase_diff_multi(s, k)
        rhs = np.exp(2j * np.pi * finite_difference(x, k).data)
        assert np.max(np.abs(lhs.data - rhs)) < 1e-9
    x2 = RealField((6, 5), rng.normal(size=(6, 5)))
    s2 = Signal((6, 5), np.exp(2j * np.pi * x2.data))
    lhs2 = phase_diff_multi(s2, (2, 1))
    rhs2 = np.exp(2j * np.pi * finite_difference(x2, (2, 1)).data)
    assert np.max(np.abs(lhs2.data - rhs2)) < 1e-9


def test_product_rule():
    rng = np.random.default_rng(7)
    for k in [(1, 1), (2, 2)]:
        s1 = Signal((7, 7), np.exp(1j * rng.normal(size=(7, 7))))
        s2 = Signal((7, 7), np.exp(1j * rng.normal(size=(7, 7))))
        prod = Signal((7, 7), s1.data * s2.data)
        lhs = phase_diff_multi(prod, k)
        rhs = phase_diff_multi(s1, k).data * phase_diff_multi(s2, k).data
        assert np.max(np.abs(lhs.data - rhs)) < 1e-9


def test_unit_binomial_difference_is_all_ones():
    M = build_total_order([(0,), (1,), (2,)])
    x = RealField((8,), binomial_field((2,), (8,)).copy())
    out = finite_difference(x, (2,))
    assert np.allclose(out.data, 1.0)


def test_signal_binary_roundtrip():
    rng = np.random.default_rng(8)
    s = Signal((3, 4), rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
    buf = io.BytesIO()
    write_signal(s, buf)
    buf.seek(0)
    back = read_signal(buf)
    assert back.window == s.window
    assert np.array_equal(back.data, s.data)


def test_signal_binary_magic_guard():
    buf = io.BytesIO(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_signal(buf)


def _signal_bytes(window=(3, 2)):
    buf = io.BytesIO()
    write_signal(Signal(window, np.arange(np.prod(window)).reshape(window) * (1 + 1j)), buf)
    return buf.getvalue()


# 0: empty, 5: inside the magic/dim header, 8: no extents, 11: half the
# extents, -16: one sample short, -1: one byte short.
@pytest.mark.parametrize("cut", [0, 5, 8, 11, -16, -1])
def test_signal_binary_rejects_truncated_file(cut):
    raw = _signal_bytes()
    with pytest.raises(ValueError, match="truncated"):
        read_signal(io.BytesIO(raw[:cut]))


def test_signal_binary_rejects_header_overrun():
    # The header claims one more row (2 samples) than the payload holds.
    raw = bytearray(_signal_bytes())
    raw[8:12] = (4).to_bytes(4, "little")
    with pytest.raises(ValueError, match="truncated"):
        read_signal(io.BytesIO(bytes(raw)))


def test_phase_diff_is_phase_diff_multi_with_unit_index():
    rng = np.random.default_rng(10)
    s = Signal((5, 7), np.exp(1j * rng.normal(size=(5, 7))))
    for d, lag in [(0, 1), (1, 2), (1, 6)]:
        k = tuple(int(i == d) for i in range(2))
        assert np.array_equal(phase_diff(s, d, lag).data, phase_diff_multi(s, k, lag).data)


def test_signal_shape_validation():
    with pytest.raises(ValueError):
        Signal((4,), np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        Signal((0,), np.ones(0, dtype=complex))
