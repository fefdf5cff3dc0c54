"""Sequential coefficient estimators for polynomial phase signals.

One private kernel, :func:`_sequential`, holds the estimation loop.  It walks
stages (m, tau), degrees in descending total order and lags inner.  Each
stage collapses the running observation to a near-constant field with
composed lagged phase differences, averages it with the closed-form
minimum-variance weights, reads the increment off the argument, and cancels
the recovered term before the next stage.  The public estimators differ only
in the basis field they cancel and in how they finish: the plain and
multi-lag estimators cancel binomial fields C(n, m); the direct estimator
cancels monomials n^m / m! and maps back to the binomial basis.  Degree sets
that are not downward closed are estimated over their closure, then
projected with Fisher weights.

All estimators are pure functions of (signal, config); a single run is
inherently sequential across degrees, but independent signals can be
estimated concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

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
from .signal import RealField, Signal, phase_diff_multi, principal_arg, unit_project
from .weights import WeightField, weight_multi

TWO_PI = 2.0 * np.pi


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
    w = u.data
    if kind is AveragingKind.LINEAR:
        return complex(np.exp(1j * float(np.sum(w * principal_arg(s.data)))))
    if kind is AveragingKind.KAY_COMPLEX:
        return complex(np.sum(w * s.data))
    if kind is AveragingKind.PROJECTED_LINEAR:
        return complex(np.sum(w * unit_project(s.data)))
    # CIRCULAR
    resultant = complex(np.sum(unit_project(s.data)))
    if resultant == 0:
        return 0j
    anchor = resultant / abs(resultant)
    theta = float(np.sum(w * principal_arg(s.data * np.conj(anchor))))
    return anchor * complex(np.exp(1j * theta))


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator parameterization.

    ``lags`` is an ascending schedule of per-dimension lags; the first entry
    must be all ones so the full coefficient cell stays identifiable, and
    later entries refine with shrunken cells.  ``general_degree_handling``
    enables the closure-then-project path for degree sets that are not
    downward closed.
    """

    degree_set: DegreeSet
    averaging: AveragingKind = AveragingKind.CIRCULAR
    lags: tuple[MultiIndex, ...] = ()
    general_degree_handling: bool = False

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
        v = self.binomial.values
        if not np.all((v >= -0.5) & (v < 0.5)):  # NaN fails too
            raise ValueError(f"binomial estimate left the cell [-1/2, 1/2): {v}")

    def to_json(self) -> dict:
        return {
            "binomial": self.binomial.to_json(),
            "monomial": self.monomial.to_json() if self.monomial else None,
            "diagnostics": [
                {"degree": list(m), "lag": list(tau), "increment": v}
                for (m, tau), v in self.diagnostics.items()
            ],
        }


def _require_estimable(cfg: EstimatorConfig, y: Signal) -> None:
    if not np.isfinite(y.data).all():
        raise ValueError("signal has non-finite samples")
    # The last lag is the largest in every dimension, so it bounds the window.
    diff_window(y.window, cfg.degree_set.max_degree, cfg.lags[-1])
    if not validate_degree_set(cfg.degree_set, y.window).downward_closed:
        raise ValueError("degree set is not downward closed; use the general-degree path")


def _sequential(
    y: Signal,
    cfg: EstimatorConfig,
    basis_field: Callable[[MultiIndex, MultiIndex], np.ndarray],
) -> tuple[np.ndarray, dict[tuple[MultiIndex, MultiIndex], float]]:
    """The sequential loop shared by every estimator.

    Stages (m, tau) run with degrees descending and lags inner.  Each stage
    averages the lagged difference of the running observation, divides the
    argument by 2*pi*tau^m, adds the increment to the coefficient of m, and
    cancels ``increment * basis_field(m, N)``.  The last stage skips the
    cancellation, since nothing reads the observation after it.
    """
    _require_estimable(cfg, y)
    M = cfg.degree_set
    N = y.window
    stages = [(m, tau) for m in reversed(M.degrees) for tau in cfg.lags]
    values = np.zeros(len(M))
    diagnostics: dict[tuple[MultiIndex, MultiIndex], float] = {}
    data = y.data
    for i, (m, tau) in enumerate(stages):
        diffed = phase_diff_multi(Signal(N, data), m, tau)
        mean = average(cfg.averaging, diffed, weight_multi(m, tau, N))
        tau_pow = math.prod(td**md for td, md in zip(tau, m))
        delta = principal_arg(mean) / (TWO_PI * tau_pow)
        values[M.position(m)] += delta
        diagnostics[(m, tau)] = delta
        if delta != 0.0 and i < len(stages) - 1:
            data = data * np.exp(-2j * np.pi * delta * basis_field(m, N))
    return values, diagnostics


def estimate_coefficients(y: Signal, cfg: EstimatorConfig) -> Estimate:
    """Single-pass sequential estimation with unit lags.

    Runs the shared loop, cancelling binomial fields C(n, m).  Each estimate
    lands in [-1/2, 1/2) by the argument convention.
    """
    if not cfg.single_unit_lag:
        raise ValueError("multi-lag schedule set; use estimate_coefficients_multilag")
    values, diagnostics = _sequential(y, cfg, binomial_field)
    return Estimate(CoefficientVector(values, BINOMIAL, cfg.degree_set), None, diagnostics)


def estimate_coefficients_direct(y: Signal, cfg: EstimatorConfig) -> Estimate:
    """Monomial-basis variant: the shared loop cancels n^m / m! instead.

    With a rotation-equivariant averaging kind the reconstruction matches
    the two-stage path (binomial estimation followed by the lattice basis
    change) exactly.  The returned binomial vector is the monomial output
    mapped back through the change of basis and wrapped to the cell.
    """
    if not cfg.single_unit_lag:
        raise ValueError("direct estimation supports only the unit lag")
    values, diagnostics = _sequential(y, cfg, monomial_field)
    M = cfg.degree_set
    T = binomial_to_monomial_matrix(M)
    binomial = CoefficientVector(
        wrap_to_cell(solve_triangular(T.matrix, values)), BINOMIAL, M
    )
    return Estimate(binomial, CoefficientVector(values, MONOMIAL, M), diagnostics)


def estimate_coefficients_multilag(y: Signal, cfg: EstimatorConfig) -> Estimate:
    """Sequential estimation refined over an ascending lag schedule.

    Runs the shared loop with every lag of the schedule per degree; dividing
    by tau^m shrinks both the noise and the identifiable cell.  The summed
    increments are wrapped to the cell.  A singleton all-ones schedule
    reproduces :func:`estimate_coefficients` bit for bit.
    """
    values, diagnostics = _sequential(y, cfg, binomial_field)
    return Estimate(
        CoefficientVector(wrap_to_cell(values), BINOMIAL, cfg.degree_set), None, diagnostics
    )


def estimate_coefficients_general(y: Signal, cfg: EstimatorConfig) -> Estimate:
    """Estimation for degree sets that need not be downward closed.

    Downward-closed sets take the plain path unchanged.  Otherwise the
    closure is estimated and the result is projected onto the requested
    degrees by Fisher-weighted least squares, which restores the constrained
    CRB instead of merely zeroing the nuisance coefficients; the projection
    may leave the cell, so the output is wrapped afterwards.
    """
    if not cfg.single_unit_lag:
        raise ValueError("general-degree handling supports only the unit lag")
    M = cfg.degree_set
    if M.is_downward_closed():
        return estimate_coefficients(y, cfg)
    closure = downward_closure(M)
    closure_cfg = replace(cfg, degree_set=closure, lags=(), general_degree_handling=False)
    closure_est = estimate_coefficients(y, closure_cfg)
    selector = np.zeros((len(closure), len(M)))
    for j, m in enumerate(M.degrees):
        selector[closure.position(m), j] = 1.0
    J = fisher_matrix(closure, y.window, 1.0).matrix  # SNR scale cancels
    normal = selector.T @ J @ selector
    projected = cho_solve(
        cho_factor(normal), selector.T @ J @ closure_est.binomial.values
    )
    values = wrap_to_cell(projected)
    return Estimate(
        CoefficientVector(values, BINOMIAL, M), None, dict(closure_est.diagnostics)
    )


def estimate(y: Signal, cfg: EstimatorConfig) -> Estimate:
    """Dispatch on the config: general-degree path, multi-lag, or plain."""
    if cfg.general_degree_handling and not cfg.degree_set.is_downward_closed():
        if not cfg.single_unit_lag:
            raise ValueError(
                "general-degree handling cannot be combined with a multi-lag schedule"
            )
        return estimate_coefficients_general(y, cfg)
    if cfg.single_unit_lag:
        return estimate_coefficients(y, cfg)
    return estimate_coefficients_multilag(y, cfg)


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
