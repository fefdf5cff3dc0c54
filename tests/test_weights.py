import itertools
from fractions import Fraction

import numpy as np
import pytest

import ppsg.estimator as estimator_module
from ppsg.basis import BINOMIAL, CoefficientVector
from ppsg.degrees import build_total_order
from ppsg.estimator import AveragingKind, EstimatorConfig, estimate_batch
from ppsg.signal import add_noise, synthesize
from ppsg.weights import _weight_axis, weight_axes, weight_multi, weight_rows

from oracles import (
    build_axis,
    covariance_axis,
    covariance_matrix,
    run_python,
    traced_peak,
    weight_1d,
    weight_axis_float_floor,
    weight_fraction,
    weight_via_inversion,
)


def test_weight_uniform_for_degree_zero():
    assert weight_1d(0, 1, 5) == pytest.approx([0.2] * 5)


def test_weight_k1_closed_form():
    # (n+1)(3-n)/10 over the 3-sample difference window
    assert weight_1d(1, 1, 4) == pytest.approx([0.3, 0.4, 0.3])


def test_weight_lagged_congruence_classes():
    w = weight_1d(1, 2, 6)
    assert w == pytest.approx([0.25, 0.25, 0.25, 0.25])
    oracle = weight_via_inversion((1,), (2,), (6,)).data
    assert np.max(np.abs(w - oracle)) < 1e-12


def test_weight_window_guard():
    with pytest.raises(ValueError):
        weight_1d(2, 3, 6)


def test_weight_multi_uniform():
    field = weight_multi((0, 0), 1, (3, 4))
    assert field.window == (3, 4)
    assert np.allclose(field.data, 1.0 / 12)


def test_weight_multi_product_structure():
    field = weight_multi((1, 0), 1, (4, 2))
    expected = np.outer([0.3, 0.4, 0.3], [0.5, 0.5])
    assert np.allclose(field.data, expected)


@pytest.mark.parametrize(
    "k,tau,N",
    [((3,), (2,), (21,)), ((2, 1), (1, 1), (7, 5)), ((0,), (1,), (9,))],
)
def test_weight_multi_sums_to_one(k, tau, N):
    assert abs(weight_multi(k, tau, N).data.sum() - 1.0) < 1e-12


def test_weight_palindromic_symmetry():
    for k, tau, N in [(1, 1, 9), (2, 1, 12), (3, 1, 17), (1, 2, 9), (2, 3, 20)]:
        w = weight_1d(k, tau, N)
        assert np.allclose(w, w[::-1], atol=1e-14)


def test_covariance_first_difference():
    cov = covariance_matrix((1,), (1,), (4,))
    assert np.array_equal(
        cov, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    )


def test_covariance_degree_zero_identity():
    cov = covariance_matrix((0, 0), 1, (3, 3))
    assert np.array_equal(cov, np.eye(9))


def test_covariance_lagged_block_pattern():
    # 10x10 kernel for N=16, k=2, tau=3: 6 on the diagonal, -4 three off,
    # 1 six off, zero elsewhere (congruence classes mod 3).
    cov = covariance_matrix((2,), (3,), (16,))
    assert len(cov) == 10
    expected = np.zeros((10, 10))
    for i, j in itertools.product(range(10), repeat=2):
        d = abs(i - j)
        expected[i, j] = {0: 6, 3: -4, 6: 1}.get(d, 0)
    assert np.array_equal(cov, expected)


def test_covariance_off_class_zeros():
    for k, tau, N in [(1, 2, 9), (2, 3, 14), (1, 4, 11)]:
        kernel = covariance_axis(k, tau, N)
        size = N - tau * k
        for i, j in itertools.product(range(size), repeat=2):
            if (i - j) % tau != 0:
                assert kernel[i, j] == 0


def test_weight_oracle_sweep_1d():
    for k in range(4):
        for tau in range(1, 4):
            for N in range(tau * k + 2, 25):
                closed = weight_multi((k,), (tau,), (N,)).data
                oracle = weight_via_inversion((k,), (tau,), (N,)).data
                assert np.max(np.abs(closed - oracle)) < 1e-10, (k, tau, N)


def test_weight_oracle_sweep_2d():
    for k0, k1 in itertools.product(range(3), repeat=2):
        for N0, N1 in itertools.product(range(3, 9), repeat=2):
            if N0 <= k0 or N1 <= k1:
                continue
            closed = weight_multi((k0, k1), 1, (N0, N1)).data
            oracle = weight_via_inversion((k0, k1), 1, (N0, N1)).data
            assert np.max(np.abs(closed - oracle)) < 1e-10, (k0, k1, N0, N1)


def test_weight_oracle_degree_zero():
    field = weight_via_inversion((0,), (1,), (6,))
    assert np.allclose(field.data, 1.0 / 6)


def test_weight_matches_exact_integer_products_bitwise():
    # Below 2^53 every intermediate of the build is an integer times a power
    # of two, so each weight is the correctly rounded rational.
    for k in range(8):
        for tau in range(1, 5):
            for N in range(tau * k + 1, 65):
                exact = weight_fraction(k, tau, N, range(N - tau * k))
                assert weight_1d(k, tau, N).tolist() == list(map(float, exact)), (k, tau, N)


@pytest.mark.parametrize("k", range(6))
def test_weight_matches_float_floor_build_bitwise(k):
    # The cached prefix, built over the half it keeps and expanded, and the
    # whole-axis build with int64 floors give the bytes of the earlier
    # build, which floored float64 arrays, up to 2^20 samples.
    windows = [1, 2, 3, 4, 5, 7, 8, 31, 64, 100, 511, 512, 513, 1000, 4096]
    windows += [2**16 - 1, 2**16, 2**16 + 1, 2**20 - 3, 2**20]
    for tau in [1, 2, 3, 4, 5, 16, 256]:
        for N in windows:
            if N > tau * k:
                want = weight_axis_float_floor(k, tau, N).tobytes()
                assert build_axis(k, tau, N).tobytes() == want, (tau, N)
                assert weight_1d(k, tau, N).tobytes() == want, (tau, N)


@pytest.mark.parametrize("tau", [1, 16])
@pytest.mark.parametrize("k", range(3))
def test_cold_weight_axis_holds_at_most_two_and_a_half_window_sized_arrays(k, tau):
    # A cold prefix holds the prefix, lo, hi and the step, half an axis
    # each, then the prefix and the mirrored axis that normalizes it: two
    # window-sized arrays, and 2.5 leave room for a temporary of half an
    # axis.  At k = 0 it is one sample and no pass.
    N = 2**20
    _weight_axis.cache_clear()
    peak = traced_peak(_weight_axis, k, tau, N)
    assert peak <= (0 if k == 0 else 2.5 * 8 * N) + 2**16, peak


@pytest.mark.parametrize("N", [65, 512, 2**12, 2**16, 2**20])
@pytest.mark.parametrize("tau", [1, 2, 4])
@pytest.mark.parametrize("k", range(5))
def test_weight_matches_fraction_oracle_at_large_windows(k, tau, N):
    w = weight_1d(k, tau, N)
    size = N - tau * k
    points = sorted({1, tau, size // 2, size - 2, size - 1, *range(0, size, size // 24)})
    exact = weight_fraction(k, tau, N, points)
    if N <= 512:
        assert sum(weight_fraction(k, tau, N, range(size))) == 1
    rel = [abs(Fraction(float(w[n])) / e - 1) for n, e in zip(points, exact)]
    assert max(rel) <= 1e-14, (max(rel), points[int(np.argmax(rel))])


def test_weight_large_window_does_not_overflow():
    w = weight_1d(3, 1, 20_000)
    assert abs(w.sum() - 1.0) < 1e-9
    assert np.all(w >= 0)
    # At k = 40 the unscaled central product C(2^19 + 40, 40)^2 is about
    # 2^1200, beyond float64.
    w = weight_1d(40, 1, 2**20)
    assert np.all(np.isfinite(w)) and np.all(w >= 0)
    assert abs(w.sum() - 1.0) < 1e-12
    mid = (2**20 - 40) // 2
    assert abs(Fraction(float(w[mid])) / weight_fraction(40, 1, 2**20, [mid])[0] - 1) < 1e-13


@pytest.mark.parametrize("tau", [1, 2, 3, 16])
@pytest.mark.parametrize("k", [*range(8), 40])
def test_weight_rows_expand_the_cached_prefix_bitwise(k, tau):
    # The cache keeps one sample at k = 0 and the first ceil(L/2) otherwise;
    # any rows expanded from it, into a new array or a reused buffer, are
    # the full build's rows bit for bit, on both sides of the middle and
    # across it, for odd and even L.  Rows inside the prefix are a slice of
    # it, not a copy.
    windows = [2**20 + tau % 2] if k == 40 else [tau * k + 9, tau * k + 10, 2**20 + k % 2]
    for N in windows:
        full, prefix = build_axis(k, tau, N), _weight_axis(k, tau, N)
        L, h = len(full), (len(full) + 1) // 2
        assert len(prefix) == (1 if k == 0 else h) and not prefix.flags.writeable
        spans = [(0, L), (0, 1), (L - 1, L), (h - 1, h), (h - 1, h + 1), (h - 2, L - 1), (1, h)]
        spans += [(h, L), (h + 1, h + 3), (L // 3, 2 * L // 3), (2, 2)]
        out = np.full(L, np.nan)
        for a, b in spans:
            want = full[a:b].tobytes()
            assert weight_rows(prefix, L, a, b).tobytes() == want, (N, a, b)
            got = weight_rows(prefix, L, a, b, out)
            assert got.flags.c_contiguous and got.tobytes() == want, (N, a, b)
            assert np.shares_memory(got, prefix) == (a < b <= len(prefix)), (N, a, b)
        assert weight_rows(prefix, L).tobytes() == full.tobytes()


def test_weight_axis_cache_is_bounded():
    for N in range(1000, 1065):
        _weight_axis(1, 1, N)
    assert _weight_axis.cache_info().currsize <= 64


@pytest.mark.parametrize(
    "degrees, N, lags",
    [
        ([(0,), (1,), (2,)], (5000,), ((1,), (16,), (256,))),
        ([(0, 0), (1, 0), (0, 1), (1, 1)], (64, 48), ((1, 1), (2, 3), (4, 9))),
    ],
    ids=["1-D", "2-D"],
)
def test_degree_zero_axis_is_shared_by_every_lag(monkeypatch, degrees, N, lags):
    # Where k_d = 0 the weights are 1/N_d whatever the lag, bit for bit, so
    # a lag schedule caches one degree-0 axis per window length, not one per
    # lag, and estimates equal those read with each lag's own axes.
    for Nd in N:
        unit = build_axis(0, 1, Nd).tobytes()
        for tau in (1, 2, 3, 16, 256):
            assert build_axis(0, tau, Nd).tobytes() == unit
            assert weight_rows(_weight_axis(0, tau, Nd), Nd).tobytes() == unit
    _weight_axis.cache_clear()
    for tau in lags:
        weight_axes((0,) * len(N), tau, N)
    assert _weight_axis.cache_info().currsize == len(set(N))
    M = build_total_order(degrees)
    rng = np.random.default_rng(len(N))
    b = CoefficientVector(rng.uniform(-0.4, 0.4, len(M)), BINOMIAL, M)
    data = np.stack([add_noise(synthesize(b, N), 10.0, rng).data for _ in range(2)])
    for kind in AveragingKind:
        cfg = EstimatorConfig(M, kind, lags=lags)
        shared = estimate_batch(data, cfg)
        with monkeypatch.context() as patch:
            own = lambda k, tau, N: [build_axis(*args) for args in zip(k, tau, N)]
            patch.setattr(estimator_module, "weight_prefixes", own)
            lagged = estimate_batch(data, cfg)
        assert shared[0].tobytes() == lagged[0].tobytes()
        assert all(d.tobytes() == lagged[1][key].tobytes() for key, d in shared[1].items())


def test_estimate_imports_no_scipy():
    result = run_python(
        "import sys\n"
        "import numpy as np\n"
        "import ppsg\n"
        "M = ppsg.build_total_order([(0,), (1,), (2,)])\n"
        "b = ppsg.CoefficientVector(np.array([0.1, -0.2, 0.3]), ppsg.BINOMIAL, M)\n"
        "est = ppsg.estimate(ppsg.synthesize(b, (1000,)), ppsg.EstimatorConfig(M))\n"
        "assert np.allclose(est.binomial.values, b.values)\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    assert result.returncode == 0, result.stderr
