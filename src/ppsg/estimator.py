"""Sequential coefficient estimators for polynomial phase signals.

One private kernel, :func:`_sequential`, holds the estimation loop.  It takes
a batch of signals, shape (B, *N) with the trial axis leading, and walks
stages (m, tau), degrees in descending total order and lags inner.  Each
stage collapses the observations the degree started with to near-constant
fields with composed lagged phase differences, averages them with the
closed-form minimum-variance weights and reads the increments off the
arguments.  The lag passes of a degree cancel the increments of the earlier
lags by rotating the differenced field by one scalar per signal, since the
m-th difference at lag tau of C(n, m) is the constant tau^m.  Each degree
then cancels its summed term over the full window once, before the next
degree.  The cancellation drops the whole turns of each phase exactly
before the trig, which spares cos and sin the slow, lossy ~1e12 rad
arguments of large windows.  :func:`estimate` cancels binomial fields
C(n, m), under any lag schedule; :func:`estimate_coefficients_direct`
cancels monomials n^m / m! and maps back to the binomial basis.  The degree
set picks the route: a set that is not downward closed is estimated over
its closure, then projected with Fisher weights.

A single signal is the batch of one.  :func:`estimate_batch` estimates many
signals in one pass, and for batches under 2^14 samples row t of its result
equals ``estimate`` of signal t bit for bit: the window reductions sum each
row exactly as a lone signal is summed, and the last scalar step of each
average stays per-signal Python ``complex`` arithmetic, whose last bit
numpy's array divide and multiply do not reproduce.  All estimators are pure
functions of (signal, config); a run is inherently sequential across
degrees.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .analysis import fisher_matrix
from .basis import (
    BINOMIAL,
    MONOMIAL,
    CoefficientVector,
    binomial_coefficients_of_field,
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
    validate_degree_set,
)
from .signal import RealField, Signal, _conj_product, _difference, principal_arg, unit_project
from .signal import phase_diff_multi  # noqa: F401  not called; benchmarks/spans.py rebinds it
from .weights import WeightField, weight_multi

TWO_PI = 2.0 * np.pi

# Per (degree, lag) stage, the increment of every signal of a batch, shape (B,).
Diagnostics = dict[tuple[MultiIndex, MultiIndex], np.ndarray]


class AveragingKind(enum.Enum):
    """Averaging operators for the collapsed phase-difference field.

    All except LINEAR commute with global phase rotations; LINEAR averages
    raw arguments against a fixed branch cut and is kept as the classical
    baseline.
    """

    LINEAR = "linear"
    KAY_COMPLEX = "kay"
    PROJECTED_LINEAR = "lw"
    CIRCULAR = "circular"

    @property
    def rotation_equivariant(self) -> bool:
        return self is not AveragingKind.LINEAR


def average(kind: AveragingKind, s: Signal, u: WeightField) -> complex:
    """Weighted average of a near-constant unit-modulus field.

    LINEAR exponentiates the weighted mean argument; KAY_COMPLEX is the
    plain weighted sum; PROJECTED_LINEAR projects samples to the unit circle
    first; CIRCULAR recenters arguments around the unweighted circular mean
    before averaging, then rotates back, which moves the branch cut away
    from the data.
    """
    if s.window != u.window:
        raise ValueError(f"window mismatch: {s.window} vs {u.window}")
    return complex(_average(kind, s.data[None], u.data)[0])


def _average(kind: AveragingKind, data: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`average` of each field of a batch, shape (B, *window) -> (B,)."""
    axes = tuple(range(1, data.ndim))
    # With the batch axis on the weights too, numpy can reuse a temporary
    # for ``w * f(data)`` when B = 1, which it does only for equal shapes.
    w = w[None]
    if kind is AveragingKind.LINEAR:
        return np.exp(1j * np.sum(w * principal_arg(data), axis=axes))
    if kind is AveragingKind.KAY_COMPLEX:
        return np.sum(w * data, axis=axes)
    if kind is AveragingKind.PROJECTED_LINEAR:
        return np.sum(w * unit_project(data), axis=axes)
    # CIRCULAR.  The anchor and the final rotation are Python complex
    # arithmetic per field; a zero resultant averages to 0.
    resultants = np.sum(unit_project(data), axis=axes).tolist()
    anchors = [r / abs(r) if r else 1.0 for r in resultants]
    lead = (-1,) + (1,) * len(axes)
    theta = np.sum(w * principal_arg(data * np.conj(anchors).reshape(lead)), axis=axes)
    turns = np.exp(1j * theta).tolist()
    return np.array([a * t if r else 0j for r, a, t in zip(resultants, anchors, turns)])


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
    window = data.shape[1:]
    # The last lag is the largest in every dimension, so it bounds the window.
    diff_window(window, cfg.degree_set.max_degree, cfg.lags[-1])
    # The binomial route sees only closed sets, so this refuses direct estimation.
    if not validate_degree_set(cfg.degree_set, window).downward_closed:
        raise ValueError("direct estimation needs a downward-closed degree set")


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
    per-signal scalar exp(-2j*pi*tau^m*acc).  After the last lag the degree
    cancels ``acc * basis_field(m, N)`` from each signal over the full
    window, once, in whole turns reduced away before the trig
    (:func:`_rotation`); the last degree skips it, since nothing reads the
    observations after it.  The window rule is checked once, up front, so
    the stages difference the raw batch directly rather than through
    ``phase_diff_multi``, which would copy at degree 0.  Returns the
    coefficients, shape (B, |M|), and each stage's increments.
    """
    _require_estimable(cfg, data)
    M = cfg.degree_set
    N = data.shape[1:]
    values = np.zeros((len(data), len(M)))
    diagnostics: Diagnostics = {}
    for i, m in enumerate(reversed(M.degrees)):
        acc = np.zeros(len(data))
        for tau in cfg.lags:
            tau_pow = math.prod(td**md for td, md in zip(tau, m))
            diffed = _rotate(_difference(data, m, tau, _conj_product), acc, tau_pow)
            mean = _average(cfg.averaging, diffed, weight_multi(m, tau, N).data)
            delta = principal_arg(mean) / (TWO_PI * tau_pow)
            acc += delta
            diagnostics[(m, tau)] = delta
        values[:, M.position(m)] = acc
        if i < len(M) - 1 and (acc != 0.0).any():
            data = _rotate(data, acc, basis_field(m, N))
    return values, diagnostics


def _rotate(data: np.ndarray, turn: np.ndarray, field: np.ndarray | int) -> np.ndarray:
    """Each signal t of a batch times exp(-2j*pi*turn[t]*field).

    ``field`` is a full basis field or a constant.  A signal whose turn is
    0 keeps its samples bit for bit, and ``data`` itself is never written.
    """
    moved = turn != 0.0
    if not moved.any():
        return data
    rot = _rotation(turn[moved].reshape((-1,) + (1,) * (data.ndim - 1)) * field)
    if not moved.all():
        data = data.copy()
        data[moved] *= rot
        return data
    # A full field's rotation buffer can take the product; a scalar one cannot.
    return np.multiply(data, rot, out=rot if rot.shape == data.shape else None)


def _rotation(turn: np.ndarray) -> np.ndarray:
    """exp(-2j*pi*turn), with the whole turns dropped before the trig.

    ``turn - rint(turn)`` is exact in float64 and whole turns do not
    rotate, so cos and sin see arguments in [-pi, pi].  Unreduced, C(n, 2)
    at 2^20 gives ~1e12 rad, which the trig reduces slowly and where
    rounding 2*pi times the phase costs ~1e-4 rad.  ``turn`` is overwritten.
    """
    turn -= np.rint(turn)
    turn *= -TWO_PI
    rot = np.empty(turn.shape, dtype=complex)
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

    With a rotation-equivariant averaging kind the reconstruction matches
    the two-stage path (binomial estimation followed by the lattice basis
    change) exactly.  The returned binomial vector is the monomial output
    mapped back through the change of basis and wrapped to the cell.
    """
    from scipy.linalg import solve_triangular

    if not cfg.single_unit_lag:
        raise ValueError("direct estimation supports only the unit lag")
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
    Row t equals ``estimate(Signal(N, data[t]), cfg)`` bit for bit while the
    batch holds fewer than 2^14 samples.  From 256 KiB up, numpy computes
    some complex products in place on temporaries, which can change their
    last bit.
    """
    route = _binomial if cfg.degree_set.is_downward_closed() else _general
    values, diagnostics = route(data, cfg)
    _check_cell(values)
    return values, diagnostics


def estimate(y: Signal, cfg: EstimatorConfig) -> Estimate:
    """:func:`estimate_batch` of one signal; the degree set picks the route."""
    return Estimate.from_batch(cfg.degree_set, *estimate_batch(y.data[None], cfg))


def parameter_invariance_witness(
    y: Signal, x_true: RealField, cfg: EstimatorConfig
) -> np.ndarray:
    """Integer witness of the estimator's parameter invariance.

    For rotation-equivariant averaging, estimating the observation and the
    derotated observation differs from the true coefficients by an exact
    integer vector; the fractional parts are checked against 1e-6 before
    rounding, so a violation surfaces as an error rather than a silent
    rounding.
    """
    if not cfg.averaging.rotation_equivariant:
        raise ValueError(f"{cfg.averaging.name} averaging is not rotation-equivariant")
    if x_true.window != y.window:
        raise ValueError(f"window mismatch: {x_true.window} vs {y.window}")
    b_true = binomial_coefficients_of_field(x_true.data, cfg.degree_set)
    derotated = Signal(y.window, y.data * np.exp(-2j * np.pi * x_true.data))
    est = estimate(y, cfg)
    est_derotated = estimate(derotated, cfg)
    diff = est.binomial.values - b_true.values - est_derotated.binomial.values
    rounded = np.rint(diff)
    frac = np.abs(diff - rounded)
    if np.any(frac > 1e-6):
        raise RuntimeError(
            f"invariance violated: fractional parts {frac.max():.3e} exceed 1e-6"
        )
    return rounded.astype(int)
