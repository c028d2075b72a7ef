"""Minibatch ellipsoid method with an SGD baseline for low-dimensional
stochastic convex optimization."""

from .geometry import (
    Ball,
    Box,
    DegenerateEllipsoidError,
    Ellipsoid,
    FeasibleSet,
    ellipsoid_step,
    linear_optimality_gap,
    shape_det_ratio,
)
from .oracles import (
    BatchSpec,
    DeltaCertificate,
    GaussianOracle,
    PerturbedOracle,
    StochasticGradOracle,
    concentration_radius,
    estimate_values,
    minibatch_gradient,
    required_batch_size,
    verify_delta_subgradient,
)
from .problems import (
    Dataset,
    DatasetFormatError,
    LinearProblem,
    LogisticOracle,
    LogisticProblem,
    QuadraticProblem,
    erm_reference,
    generate_synthetic,
    load_dataset_csv,
    save_dataset_csv,
    split_train_test,
)
from .reporting import IterationRecord, SolverReport, write_trace_csv
from .sgd import SgdConfig, default_step_grid, sgd_run
from .solver import (
    NoFeasiblePointError,
    Plan,
    SolverConfig,
    estimate_value_range,
    iteration_budget,
    resolve_plan,
    solve,
    theoretical_gap,
)

__version__ = "0.1.0"
