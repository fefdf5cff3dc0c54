"""A randomized gate over the domain the estimator claims: any dimension,
degree set, window from the edge N = tau * m + 1 up, lag schedule and
averaging kind, on exact noise-free input."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsg.basis import BINOMIAL, CoefficientVector, wrap_to_cell
from ppsg.degrees import build_total_order, downward_closure
from ppsg.estimator import AveragingKind, EstimatorConfig, estimate, estimate_batch
from ppsg.signal import Signal, add_noise, synthesize

from oracles import exact_signal

_SAMPLES = 1 << 14  # the largest window drawn


@st.composite
def _cases(draw):
    """(degree set, window, lags, kind, coefficients): dimensions 1-4, total
    degree <= 3 (<= 2 from three dimensions), closed and non-closed sets,
    the unit lag or 2-3 powers of 2-4 per dimension, and coefficients in the
    cell that are whole numbers of turns (0 or at least 2^-12 in size).

    LINEAR reads a stage's differences against a fixed cut at +-1/2 cycle,
    and a degree's first stage differences to its coefficient, so one
    within rounding of +-1/2 straddles the cut: a wrap, not a rounding
    error.  Its coefficients are drawn 2^-8 inside the cell."""
    D = draw(st.integers(1, 4))
    top = draw(st.integers(1, 3 if D < 3 else 2))
    every = [m for m in itertools.product(range(top + 1), repeat=D) if sum(m) <= top]
    picks = build_total_order(draw(st.lists(st.sampled_from(every), min_size=1, max_size=4)))
    M = downward_closure(picks) if draw(st.booleans()) else picks
    lags = ((1,) * D,)
    if M.is_downward_closed() and draw(st.booleans()):
        bases = draw(st.lists(st.integers(2, 4), min_size=D, max_size=D))
        lags = tuple(tuple(b**k for b in bases) for k in range(draw(st.integers(2, 3))))
    edge = [t * m + 1 for t, m in zip(lags[-1], M.max_degree)]
    scale = max(1.0, _SAMPLES / math.prod(edge)) ** (1 / D)
    N = tuple(draw(st.integers(e, max(e, int(e * scale)))) for e in edge)
    kind = draw(st.sampled_from(list(AveragingKind)))
    half = 0.5 if kind is AveragingKind.CIRCULAR else 0.5 - 2**-8
    cell = st.floats(-half, half, exclude_max=True).map(lambda b: b if abs(b) >= 2**-12 else 0.0)
    return M, N, lags, kind, draw(st.lists(cell, min_size=len(M), max_size=len(M)))


def _linear_limit(M, N) -> float:
    """The documented limit of LINEAR on the unit lag alone, in cycles.

    It averages each stage's turns in float64, so a stage's mean rounds by
    up to about size(N) * 2^-52, and cancelling degree m carries the
    rounding of its increment times up to C(N, m) down to the degrees below;
    a set that is not downward closed is estimated over its closure.  Over
    7500 scanned cases the error reached 1.4 times size(N) + sum C(N, m)
    turns of 2^-52 cycle; the limit allows 4 times that.
    """
    C = [math.prod(map(math.comb, N, m)) for m in downward_closure(M).degrees]
    return 2.0**-50 * (math.prod(N) + sum(C))


@settings(derandomize=True, deadline=None, max_examples=250)
@given(_cases())
def test_exact_input_is_recovered_over_the_domain(case):
    # CIRCULAR on any set and either kind under a lag schedule recover an
    # exact phase within a few ulps of a coefficient; LINEAR on the unit lag
    # alone keeps its documented float64 limit.
    M, N, lags, kind, values = case
    cfg = EstimatorConfig(M, kind, lags=lags)
    got, _ = estimate_batch(exact_signal(values, M, N)[None], cfg)
    error = np.abs(wrap_to_cell(got[0] - np.array(values))).max()
    exact = kind is AveragingKind.CIRCULAR or not cfg.single_unit_lag
    assert error <= (2.0**-50 if exact else _linear_limit(M, N)), (error, M.degrees, N, lags)


_HALF_CYCLE_CASE = ([(0,), (2,)], (8,), [0.0, 0.5 - 2**-54])


def _half_cycle_error(kind) -> float:
    degrees, N, values = _HALF_CYCLE_CASE
    M = build_total_order(degrees)
    got, _ = estimate_batch(exact_signal(values, M, N)[None], EstimatorConfig(M, kind))
    return np.abs(wrap_to_cell(got[0] - np.array(values))).max()


@pytest.mark.xfail(strict=True, reason="LINEAR's branch cut at +-1/2 cycle; estimates 0.058, 0.49")
def test_linear_loses_a_coefficient_within_rounding_of_half_a_cycle():
    # The first stage of degree 2 differences to a constant on LINEAR's
    # branch cut, and the arctan2 rounding at entry puts some samples at
    # +1/2 cycle and some at -1/2: a wrap, not a rounding error.  Hence
    # _cases draws LINEAR's coefficients 2^-8 inside the cell.
    assert _half_cycle_error(AveragingKind.LINEAR) <= 2.0**-50


def test_circular_keeps_a_coefficient_within_rounding_of_half_a_cycle():
    assert _half_cycle_error(AveragingKind.CIRCULAR) <= 2.0**-50


@pytest.mark.parametrize(
    "degrees, N, lags",
    [
        ([(0,), (1,), (2,), (3,)], (4096,), ((1,), (4,))),
        ([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], (64, 48), ((1, 1), (2, 3))),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 1), (0, 0, 1), (0, 1, 0)], (16, 12, 10), ()),
        ([(0,) * 4, (1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 1)], (8, 7, 6, 9), ((1,) * 4, (2,) * 4)),
    ],
    ids=["1-D", "2-D", "3-D", "4-D"],
)
@pytest.mark.parametrize("kind", list(AveragingKind))
def test_noisy_estimates_stay_in_the_cell_and_batch_rows_are_lone_estimates(kind, degrees, N, lags):
    M = build_total_order(degrees)
    rng = np.random.default_rng(len(N))
    rows = [
        add_noise(synthesize(CoefficientVector(rng.uniform(-0.5, 0.5, len(M)), BINOMIAL, M), N),
                  10.0, rng).data
        for _ in range(3)
    ]
    cfg = EstimatorConfig(M, kind, lags=lags)
    values, diagnostics = estimate_batch(np.stack(rows), cfg)
    assert np.all((values >= -0.5) & (values < 0.5))
    for t, row in enumerate(rows):
        one = estimate(Signal(N, row), cfg)
        assert one.binomial.values.tobytes() == values[t].tobytes()
        assert repr(one.diagnostics) == repr({k: float(d[t]) for k, d in diagnostics.items()})
