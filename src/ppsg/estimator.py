"""Sequential coefficient estimators for polynomial phase signals.

One private kernel, :func:`_sequential`, holds the estimation loop.  It takes
a batch of signals, shape (B, *N) with the trial axis leading, and walks
stages (m, tau), degrees in descending total order and lags inner.  It
projects the batch once at entry: arguments add under products.  Each stage
collapses the observations the degree started with to near-constant fields
with composed lagged phase differences, averages them with the closed-form
minimum-variance weights one axis at a time and reads the increments off the
arguments.  The lag passes of a degree cancel the increments of the earlier
lags by rotating the differenced field by one scalar per signal, since the
m-th difference at lag tau of C(n, m) is the constant tau^m.  Each degree
then cancels its summed term over the full window once, before the next
degree.  Every rotation goes through :func:`_rotation`, which drops whole
turns exactly before the trig; the cancellation runs the turns and trig only
over the axes the degree touches.  A rotation is skipped by the loop's
structure alone, never by the data: the first lag has nothing to cancel yet,
and nothing reads the observations after the last degree.  Each call holds
its full-window intermediates in one workspace of two buffers.
:func:`estimate` cancels binomial fields C(n, m), under any lag schedule;
:func:`estimate_coefficients_direct` cancels monomials n^m / m! and maps back
to the binomial basis.  The degree set picks the route: a set that is not
downward closed is estimated over its closure, then projected with Fisher
weights.

A single signal is the batch of one.  :func:`estimate_batch` estimates many
signals in one pass, and row t of its result equals ``estimate`` of signal t
bit for bit: the window reductions sum each row exactly as a lone signal is
summed, and the last scalar step of each average stays per-signal Python
``complex`` arithmetic, whose last bit numpy's array divide and multiply do
not reproduce.  All estimators are pure functions of (signal, config); a run
is inherently sequential across degrees.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .analysis import fisher_matrix
from .basis import (
    BINOMIAL,
    MONOMIAL,
    CoefficientVector,
    binomial_field,
    binomial_to_monomial_matrix,
    monomial_field,
    wrap_to_cell,
)
from .degrees import (
    DegreeSet,
    MultiIndex,
    as_lag,
    diff_window,
    downward_closure,
    validate_degree_set,  # noqa: F401  not called; benchmarks/spans.py rebinds it
)
from .signal import Signal, _conj_product, _difference, principal_arg, unit_project
from .signal import phase_diff_multi  # noqa: F401  not called; benchmarks/spans.py rebinds it
from .weights import WeightField, weight_axes
from .weights import weight_multi  # noqa: F401  not called; benchmarks/spans.py rebinds it

TWO_PI = 2.0 * np.pi

# Per (degree, lag) stage, the increment of every signal of a batch, shape (B,).
Diagnostics = dict[tuple[MultiIndex, MultiIndex], np.ndarray]


class AveragingKind(enum.Enum):
    """Averaging operators for the collapsed phase-difference field.

    CIRCULAR commutes with global phase rotations; LINEAR averages raw
    arguments against a fixed branch cut and is kept as the classical
    baseline.
    """

    LINEAR = "linear"
    CIRCULAR = "circular"


def average(kind: AveragingKind, s: Signal, u: WeightField) -> complex:
    """Weighted average of a near-constant field, projected to the unit circle.

    LINEAR exponentiates the weighted mean argument; CIRCULAR recenters
    arguments around the unweighted circular mean before averaging, then
    rotates back, which moves the branch cut away from the data.
    """
    if not isinstance(kind, AveragingKind):
        raise ValueError(f"kind must be an AveragingKind, got {kind!r}")
    if s.window != u.window:
        raise ValueError(f"window mismatch: {s.window} vs {u.window}")
    return complex(_average(kind, unit_project(s.data.reshape(1, -1)), [u.data.ravel()])[0])


def _average(
    kind: AveragingKind, data: np.ndarray, w: list[np.ndarray], home=None, spare=None
) -> np.ndarray:
    """:func:`average` of each field of a batch, shape (B, *window) -> (B,).

    ``data`` holds unit samples.  ``einsum``, not BLAS, whose threads reorder
    sums, contracts ``w`` one axis at a time.  The CIRCULAR anchoring is
    written into the workspace buffer ``home``, which may hold ``data``
    itself, and the arguments into ``spare``; without them both are fresh
    arrays and ``data`` is never written.
    """
    if kind is AveragingKind.CIRCULAR:
        # The anchor and the final rotation are Python complex arithmetic
        # per field; a zero resultant averages to 0.
        resultants = np.sum(data, axis=tuple(range(1, data.ndim))).tolist()
        anchors = [r / abs(r) if r else 1.0 for r in resultants]
        lead = (-1,) + (1,) * (data.ndim - 1)
        data = np.multiply(data, np.conj(anchors).reshape(lead), out=_view(home, data.shape))
    f = principal_arg(data, out=_view(spare, data.shape, float))
    for wd in reversed(w):
        if f.shape[-1] > np.getbufsize():
            # einsum sums an axis longer than its buffer in pieces, split one
            # way for a batch and another for a lone row; go row by row.
            f = np.stack([np.einsum("...n,n->...", row, wd) for row in f])
        else:
            f = np.einsum("...n,n->...", f, wd)
    if kind is AveragingKind.LINEAR:
        return np.exp(1j * f)
    turns = np.exp(1j * f).tolist()
    return np.array([a * t if r else 0j for r, a, t in zip(resultants, anchors, turns)])


def _view(buf: np.ndarray | None, shape: tuple[int, ...], dtype=complex) -> np.ndarray | None:
    """The head of a contiguous buffer as ``dtype`` in ``shape``; ``None`` stays ``None``."""
    return None if buf is None else buf.reshape(-1).view(dtype)[: math.prod(shape)].reshape(shape)


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator parameterization.

    ``lags`` is an ascending schedule of per-dimension lags; the first entry
    must be all ones so the full coefficient cell stays identifiable, and
    later entries refine with shrunken cells.  A degree set that is not
    downward closed is estimated over its closure and projected, which needs
    the unit lag alone; a lag schedule with such a set is rejected here.
    """

    degree_set: DegreeSet
    averaging: AveragingKind = AveragingKind.CIRCULAR
    lags: tuple[MultiIndex, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.averaging, AveragingKind):
            raise ValueError(f"averaging must be an AveragingKind, got {self.averaging!r}")
        dim = self.degree_set.dim
        lags = tuple(as_lag(tau, dim) for tau in self.lags or ((1,) * dim,))
        if lags[0] != (1,) * dim:
            raise ValueError(f"first lag must be all ones, got {lags[0]}")
        for prev, nxt in zip(lags, lags[1:]):
            if not all(n > p for p, n in zip(prev, nxt)):
                raise ValueError(
                    f"lags must be strictly ascending componentwise: {prev} -> {nxt}"
                )
        object.__setattr__(self, "lags", lags)
        if not (self.degree_set.is_downward_closed() or self.single_unit_lag):
            raise ValueError("degrees that are not downward closed need the unit lag alone")

    @property
    def single_unit_lag(self) -> bool:
        return len(self.lags) == 1


@dataclass(frozen=True)
class Estimate:
    """Estimated coefficients plus per-stage diagnostics.

    ``binomial`` always lies in the cell [-1/2, 1/2)^|M|.  ``diagnostics``
    maps (degree, lag) to the increment contributed by that stage, so
    experiments can attribute error to lag passes.
    """

    binomial: CoefficientVector
    monomial: CoefficientVector | None = None
    diagnostics: dict[tuple[MultiIndex, MultiIndex], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_cell(self.binomial.values)

    @classmethod
    def from_batch(cls, M: DegreeSet, values: np.ndarray, diagnostics: Diagnostics) -> Estimate:
        """The first signal's estimate in an :func:`estimate_batch` result."""
        return cls(CoefficientVector(values[0], BINOMIAL, M), None, _first(diagnostics))

    def to_json(self) -> dict:
        return {
            "binomial": self.binomial.to_json(),
            "monomial": self.monomial.to_json() if self.monomial else None,
            "diagnostics": [
                {"degree": list(m), "lag": list(tau), "increment": v}
                for (m, tau), v in self.diagnostics.items()
            ],
        }


def _first(diagnostics: Diagnostics) -> dict[tuple[MultiIndex, MultiIndex], float]:
    return {key: float(delta[0]) for key, delta in diagnostics.items()}


def _check_cell(values: np.ndarray) -> None:
    if not np.all((values >= -0.5) & (values < 0.5)):  # NaN fails too
        raise ValueError(f"binomial estimate left the cell [-1/2, 1/2): {values}")


def _require_estimable(cfg: EstimatorConfig, data: np.ndarray) -> None:
    if not np.isfinite(data).all():
        raise ValueError("signal has non-finite samples")
    # The last lag is the largest in every dimension, so it bounds the window.
    diff_window(data.shape[1:], cfg.degree_set.max_degree, cfg.lags[-1])


def _sequential(
    data: np.ndarray,
    cfg: EstimatorConfig,
    basis_field: Callable[[MultiIndex, MultiIndex], np.ndarray],
) -> tuple[np.ndarray, Diagnostics]:
    """The sequential loop shared by every estimator, over a batch (B, *N).

    Degrees run in descending order, and each degree m runs the lags of the
    schedule in turn on the observations it started with.  A lag stage
    averages the lagged differences, divides the arguments by 2*pi*tau^m
    and adds the increments to the coefficient of m.  The m-th difference
    at lag tau of C(n, m) is the constant tau^m, so the increments ``acc``
    of the earlier lags are cancelled from the differenced field by the
    per-signal scalar exp(-2j*pi*tau^m*acc); the first lag has none to
    cancel.  After the last lag the degree cancels ``acc * basis_field(m, N)``
    from each signal over the full window, once, in whole turns reduced away
    before the trig (:func:`_rotation`); the last degree skips it, since
    nothing reads the observations after it.  These two skips are the only
    ones: a signal whose turn is 0 is rotated by 1 like any other.  The field
    is constant along the axes where m_d = 0, so its turns and trig run over
    the other axes only.  The window rule is checked once, up front, so the
    stages difference the projected batch directly.

    The weights are built first, so a cold build's temporaries never share
    memory with the batch.  The call owns the projected batch, which the
    cancellations rotate in place, and two window-sized buffers for every
    other full-window array: the differences alternate between them.
    Returns the coefficients, shape (B, |M|), and each stage's increments.
    """
    _require_estimable(cfg, data)
    M = cfg.degree_set
    N = data.shape[1:]
    weights = {(m, tau): weight_axes(m, tau, N) for m in M.degrees for tau in cfg.lags}
    data = unit_project(data)
    work = (np.empty(data.size, complex), np.empty(data.size, complex))
    values = np.zeros((len(data), len(M)))
    diagnostics: Diagnostics = {}
    lead = (-1,) + (1,) * len(N)
    for i, m in enumerate(reversed(M.degrees)):
        acc = np.zeros(len(data))
        # |m| products alternate work[0], work[1], ...; the last one's is home.
        home, spare = work if sum(m) % 2 else work[::-1]
        for j, tau in enumerate(cfg.lags):
            tau_pow = math.prod(td**md for td, md in zip(tau, m))
            diffed = _difference(data, m, tau, _alternating(work))
            if j:
                rot = _rotation(acc.reshape(lead) * tau_pow)
                diffed = np.multiply(diffed, rot, out=_view(home, diffed.shape))
            mean = _average(cfg.averaging, diffed, weights[m, tau], home, spare)
            delta = principal_arg(mean) / (TWO_PI * tau_pow)
            acc += delta
            diagnostics[(m, tau)] = delta
        values[:, M.position(m)] = acc
        if i < len(M) - 1:
            touched = basis_field(m, N)[tuple(slice(None if md else 1) for md in m)]
            shape = (len(data), *touched.shape)
            turn = np.multiply(acc.reshape(lead), touched, out=_view(work[0], shape, float))
            data *= _rotation(turn, _view(work[1], shape))
    return values, diagnostics


def _alternating(work: tuple[np.ndarray, np.ndarray]):
    """A :func:`_difference` step whose products alternate between buffers."""
    buffers = itertools.cycle(work)
    return lambda later, earlier: _conj_product(later, earlier, _view(next(buffers), later.shape))


def _rotation(turn: np.ndarray, rot: np.ndarray | None = None) -> np.ndarray:
    """exp(-2j*pi*turn), into ``rot`` if given, with whole turns dropped first.

    ``turn - rint(turn)`` is exact in float64 and whole turns do not
    rotate, so cos and sin see arguments in [-pi, pi].  Unreduced, C(n, 2)
    at 2^20 gives ~1e12 rad, which the trig reduces slowly and where
    rounding 2*pi times the phase costs ~1e-4 rad.  ``turn`` is overwritten.
    """
    rot = np.empty(turn.shape, dtype=complex) if rot is None else rot
    whole = _view(rot, turn.shape, float)  # contiguous room, free until the trig
    turn -= np.rint(turn, out=whole)
    turn *= -TWO_PI
    np.cos(turn, out=rot.real)
    np.sin(turn, out=rot.imag)
    return rot


def _binomial(data: np.ndarray, cfg: EstimatorConfig) -> tuple[np.ndarray, Diagnostics]:
    """The loop cancelling binomial fields; a lag schedule's sums are wrapped."""
    values, diagnostics = _sequential(data, cfg, binomial_field)
    return (values if cfg.single_unit_lag else wrap_to_cell(values)), diagnostics


def _general(data: np.ndarray, cfg: EstimatorConfig) -> tuple[np.ndarray, Diagnostics]:
    """Closure estimate, then a Fisher-weighted projection of each row, which
    restores the constrained CRB (zeroing would not), wrapped to the cell."""
    from scipy.linalg import cho_factor, cho_solve

    closure = downward_closure(cfg.degree_set)
    closure_values, diagnostics = _binomial(data, replace(cfg, degree_set=closure))
    rows = [closure.position(m) for m in cfg.degree_set.degrees]
    J = fisher_matrix(closure, data.shape[1:], 1.0).matrix  # SNR scale cancels
    factor = cho_factor(J[rows][:, rows])
    weighted = J[rows]
    projected = np.array([cho_solve(factor, weighted @ v) for v in closure_values])
    return wrap_to_cell(projected), diagnostics


def estimate_coefficients_direct(y: Signal, cfg: EstimatorConfig) -> Estimate:
    """Monomial-basis variant: the shared loop cancels n^m / m! instead.

    With CIRCULAR averaging the reconstruction matches the two-stage path
    (binomial estimation followed by the lattice basis change) exactly.  The
    returned binomial vector is the monomial output mapped back through the
    change of basis and wrapped to the cell.
    """
    from scipy.linalg import solve_triangular

    if not cfg.single_unit_lag:
        raise ValueError("direct estimation supports only the unit lag")
    if not cfg.degree_set.is_downward_closed():
        raise ValueError("direct estimation needs a downward-closed degree set")
    values, diagnostics = _sequential(y.data[None], cfg, monomial_field)
    M = cfg.degree_set
    T = binomial_to_monomial_matrix(M)
    binomial = CoefficientVector(
        wrap_to_cell(solve_triangular(T.matrix, values[0])), BINOMIAL, M
    )
    return Estimate(binomial, CoefficientVector(values[0], MONOMIAL, M), _first(diagnostics))


def estimate_batch(data: np.ndarray, cfg: EstimatorConfig) -> tuple[np.ndarray, Diagnostics]:
    """:func:`estimate` of every signal of a batch, shape (B, *N).

    Returns the binomial coefficients, shape (B, |M|), every row checked to
    lie in the cell, and each (degree, lag) stage's increments, shape (B,).
    Row t equals ``estimate(Signal(N, data[t]), cfg)`` bit for bit.
    """
    route = _binomial if cfg.degree_set.is_downward_closed() else _general
    values, diagnostics = route(data, cfg)
    _check_cell(values)
    return values, diagnostics


def estimate(y: Signal, cfg: EstimatorConfig) -> Estimate:
    """:func:`estimate_batch` of one signal; the degree set picks the route."""
    return Estimate.from_batch(cfg.degree_set, *estimate_batch(y.data[None], cfg))
