import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsg.basis import binomial_field
from ppsg.degrees import (
    DegreeSet,
    as_index,
    as_lag,
    build_total_order,
    diff_window,
    downward_closure,
    partial_leq,
    validate_degree_set,
)
from ppsg.estimator import EstimatorConfig, estimate
from ppsg.harness import ExperimentConfig
from ppsg.signal import RealField, Signal, phase_diff_multi
from ppsg.weights import weight_multi

from oracles import binom, binomial_transform, finite_difference, multi_binom, phase_diff, weight_1d

# Degree pattern of a 2-D set that is NOT downward closed: the full staircase
# minus the interior point (2, 2), while (3, 2) stays in.
STAIRCASE = [
    (m0, 0) for m0 in range(5)
] + [
    (m0, 1) for m0 in range(5)
] + [
    (m0, 2) for m0 in range(4)
] + [
    (m0, 3) for m0 in range(2)
] + [(0, 4)]
STAIRCASE_HOLED = [m for m in STAIRCASE if m != (2, 2)]


def test_binom_small_values():
    assert binom(5, 2) == 10
    assert binom(3, -1) == 0
    assert binom(-1, 2) == 1  # (-1)(-2)/2!
    assert binom(0, 0) == 1
    assert binom(2, 3) == 0


def test_binom_pascal_recurrence_exhaustive():
    for n in range(-10, 11):
        for k in range(0, 11):
            assert binom(n, k) == binom(n - 1, k) + binom(n - 1, k - 1)


def test_multi_binom():
    assert multi_binom((3, 4), (1, 2)) == 18
    assert multi_binom((7, -2, 5), (0, 0, 0)) == 1
    assert multi_binom((2, 5), (3, 1)) == 0
    with pytest.raises(ValueError):
        multi_binom((1, 2), (1,))


def test_partial_leq():
    assert partial_leq((1, 2), (2, 2))
    assert not partial_leq((2, 1), (1, 2))
    assert partial_leq((0, 0), (3, 2))
    with pytest.raises(ValueError):
        partial_leq((1,), (1, 2))


def test_build_total_order_1d_chain():
    M = build_total_order([(2,), (0,), (1,)])
    assert M.degrees == ((0,), (1,), (2,))


def test_build_total_order_tie_break():
    M = build_total_order([(0, 0), (1, 0), (0, 1)])
    assert M.degrees == ((0, 0), (0, 1), (1, 0))
    _assert_compatible(M)


def test_build_total_order_singleton():
    M = build_total_order([(3, 2)])
    assert M.degrees == ((3, 2),)


def _assert_compatible(M: DegreeSet) -> None:
    for i, mi in enumerate(M.degrees):
        for mj in M.degrees[i + 1 :]:
            assert not (partial_leq(mj, mi) and mj != mi)


@settings(max_examples=200, deadline=None)
@given(
    st.sets(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        min_size=1,
        max_size=12,
    )
)
def test_build_total_order_always_compatible(degrees):
    _assert_compatible(build_total_order(degrees))


def test_degree_set_rejects_duplicates_and_negatives():
    with pytest.raises(ValueError):
        DegreeSet(((1,), (1,)))
    with pytest.raises(ValueError):
        DegreeSet(((-1,),))
    with pytest.raises(ValueError):
        DegreeSet(())


def test_degree_set_rejects_incompatible_order():
    with pytest.raises(ValueError):
        DegreeSet(((1,), (0,)))


def test_degree_set_accepts_any_compatible_order():
    M = DegreeSet(((0, 0), (1, 0), (0, 1), (1, 1)))
    assert M.position((1, 0)) == 1


def test_degree_set_json_roundtrip():
    M = build_total_order([(0, 0), (0, 1), (1, 0)])
    assert M.to_json() == [[0, 0], [0, 1], [1, 0]]
    assert DegreeSet.from_json(M.to_json()) == M


def test_validate_degree_set_boundary_window():
    M = build_total_order([(0,), (1,), (2,)])
    report = validate_degree_set(M, (3,))
    assert report.window_ok and report.downward_closed


def test_validate_degree_set_monomial_not_closed():
    M = build_total_order([(3,)])
    report = validate_degree_set(M, (16,))
    assert report.window_ok and not report.downward_closed


def test_validate_degree_set_staircase_hole():
    M = build_total_order(STAIRCASE_HOLED)
    report = validate_degree_set(M, (5, 5))
    assert report.window_ok and not report.downward_closed
    assert validate_degree_set(build_total_order(STAIRCASE), (5, 5)).downward_closed


def test_downward_closure_monomial():
    M = build_total_order([(3,)])
    assert downward_closure(M).degrees == ((0,), (1,), (2,), (3,))


def test_downward_closure_fixed_point():
    M = build_total_order([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert downward_closure(M) == M


def test_downward_closure_box():
    M = build_total_order([(1, 1)])
    assert set(downward_closure(M).degrees) == {(0, 0), (0, 1), (1, 0), (1, 1)}


@settings(max_examples=150, deadline=None)
@given(
    st.sets(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        min_size=1,
        max_size=6,
    )
)
def test_downward_closure_properties(degrees):
    M = build_total_order(degrees)
    closed = downward_closure(M)
    assert set(M.degrees) <= set(closed.degrees)
    assert downward_closure(closed) == closed
    N = tuple(max(m[d] for m in closed.degrees) + 1 for d in range(2))
    assert validate_degree_set(closed, N).downward_closed


def test_closure_matches_box_union():
    M = build_total_order([(2, 0), (0, 1)])
    expected = set(itertools.product(range(3), range(1))) | {(0, 1)} | {(0, 0)}
    assert set(downward_closure(M).degrees) == expected


def test_as_lag_scalar_and_sequence_forms():
    assert as_lag(2, 3) == (2, 2, 2)
    assert as_lag(np.int64(2), 2) == (2, 2)
    assert as_lag(np.array(3), 1) == (3,)
    assert as_lag((1, np.int64(4)), 2) == (1, 4)
    assert as_lag([2, 3], 2) == (2, 3)
    with pytest.raises(ValueError):
        as_lag((1, 2), 3)
    with pytest.raises(ValueError):
        as_lag(0, 1)


def test_as_index_accepts_integers_only():
    assert as_index([1, np.int64(2), np.int32(3)]) == (1, 2, 3)
    assert as_index(np.arange(3)) == (0, 1, 2)
    assert all(type(v) is int for v in as_index(np.arange(3)))
    for bad in ([8.0], ["8"], "8", [1.9], 5, [None]):
        with pytest.raises(ValueError):
            as_index(bad)


M01 = build_total_order([(0,), (1,)])


def _experiment(**kwargs):
    base = dict(
        degree_set=M01,
        window=(8,),
        snr_db_grid=(10.0,),
        trials=2,
        parameter_mode="zero",
        estimator_config=EstimatorConfig(M01),
    )
    return ExperimentConfig(**{**base, **kwargs})


# Each call truncated a float entry to an integer before indices were read
# through as_index; now each must refuse it.  Where a pattern is given, the
# message must name the field or the offending lag.
NON_INTEGER_CASES = [
    ("weight_multi", lambda: weight_multi((1.9,), 1, (8.7,)), None),
    ("weight_1d", lambda: weight_1d(1, 1, 8.5), None),
    ("binomial_field", lambda: binomial_field((2.5,), (6,)), None),
    ("build_total_order", lambda: build_total_order([(0,), (1.5,)]), None),
    ("Signal", lambda: Signal((4.9,), np.ones(4, dtype=complex)), None),
    ("EstimatorConfig_lags", lambda: EstimatorConfig(M01, lags=((1,), (2.5,))), r"got \(2\.5,\)$"),
    ("ExperimentConfig_window", lambda: _experiment(window=(64.5,)), None),
    ("ExperimentConfig_trials", lambda: _experiment(trials=2.5), "trials must be"),
    ("ExperimentConfig_master_seed", lambda: _experiment(master_seed=7.0), "master_seed must be"),
    # operator.index reads True as 1; numpy 2's bool already has no __index__.
    ("as_index_bool", lambda: as_index([True]), None),
    ("as_index_numpy_bool", lambda: as_index([np.True_]), None),
    ("ExperimentConfig_bool_trials", lambda: _experiment(trials=True), "trials must be"),
    ("weight_1d_bool", lambda: weight_1d(True, 1, 8), None),
]


@pytest.mark.parametrize(
    "call,match", [c[1:] for c in NON_INTEGER_CASES], ids=[c[0] for c in NON_INTEGER_CASES]
)
def test_non_integer_index_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_diff_window_returns_window_and_resolved_lag():
    assert diff_window((9, 7), (2, 1), 3) == ((3, 4), (3, 3))
    assert diff_window((9, 7), (2, 1), (4, 6)) == ((1, 1), (4, 6))
    assert diff_window((5,), (0,)) == ((5,), (1,))
    with pytest.raises(ValueError):
        diff_window((9, 7), (2, 1), (4, 7))
    with pytest.raises(ValueError):
        diff_window((9,), (2, 1))
    with pytest.raises(ValueError):
        diff_window((9,), (-1,))


def _ones(N):
    return Signal(N, np.ones(N, dtype=complex))


M012 = build_total_order([(0,), (1,), (2,)])
BOX = build_total_order([(0, 0), (0, 1), (1, 0), (1, 1)])

# (entry point, order k, lag tau, call on a window N).  Every entry point
# must accept N = tau*k + 1 and reject N = tau*k in any one dimension.
WINDOW_RULE_CASES = [
    ("phase_diff", (1,), (3,), lambda N: phase_diff(_ones(N), 0, 3)),
    ("phase_diff_multi", (2, 1), (3, 2), lambda N: phase_diff_multi(_ones(N), (2, 1), (3, 2))),
    (
        "finite_difference",
        (2, 1),
        (1, 1),
        lambda N: finite_difference(RealField(N, np.zeros(N)), (2, 1)),
    ),
    ("weight_1d", (2,), (3,), lambda N: weight_1d(2, 3, N[0])),
    ("weight_multi", (2, 1), (3, 2), lambda N: weight_multi((2, 1), (3, 2), N)),
    ("binomial_transform", (2, 1), (1, 1), lambda N: binomial_transform(np.zeros(N), (2, 1))),
    (
        "estimate_1d_lags",
        (2,),
        (4,),
        lambda N: estimate(_ones(N), EstimatorConfig(M012, lags=((1,), (2,), (4,)))),
    ),
    (
        "estimate_2d_lags",
        (1, 1),
        (2, 3),
        lambda N: estimate(_ones(N), EstimatorConfig(BOX, lags=((1, 1), (2, 3)))),
    ),
]


@pytest.mark.parametrize(
    "k,tau,call", [case[1:] for case in WINDOW_RULE_CASES], ids=[c[0] for c in WINDOW_RULE_CASES]
)
def test_window_rule_at_every_entry_point(k, tau, call):
    fits = tuple(td * kd + 1 for td, kd in zip(tau, k))
    call(fits)
    for d in range(len(fits)):
        with pytest.raises(ValueError):
            call(fits[:d] + (fits[d] - 1,) + fits[d + 1 :])
