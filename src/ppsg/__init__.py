"""Multidimensional polynomial phase estimation.

Recover the coefficients of a complex exponential whose phase is a
multivariate polynomial, from noisy samples on a rectangular window, with
linear-time sequential estimation, circular averaging, optional lag
refinement, and CRB-based quality assessment.
"""

__version__ = "0.1.0"

from .degrees import (
    DegreeSet,
    DegreeSetReport,
    build_total_order,
    downward_closure,
    partial_leq,
    validate_degree_set,
)
from .basis import (
    BINOMIAL,
    MONOMIAL,
    ChangeOfBasis,
    CoefficientVector,
    binomial_to_monomial_matrix,
    compute_lattice_point,
    compute_new_coordinate,
    wrap_to_cell,
)
from .signal import (
    RealField,
    Signal,
    add_noise,
    phase_diff_multi,
    read_signal,
    synthesize,
    write_signal,
)
from .weights import WeightField, weight_multi
from .estimator import (
    AveragingKind,
    Estimate,
    EstimatorConfig,
    average,
    estimate,
    estimate_coefficients_direct,
)
from .analysis import (
    FisherMatrix,
    crb,
    fisher_matrix,
    outlier_predicate,
    reconstruction_bound,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    TrialResult,
    run_sweep,
    run_trial,
    snr_db_to_linear,
)

__all__ = [name for name in dir() if not name.startswith("_")]
