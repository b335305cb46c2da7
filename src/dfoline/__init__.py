"""Derivative-free optimization with bounded-noise oracles.

Gradient estimators built from function values only (Gaussian smoothing and
linear interpolation), a noise-tolerant backtracking line search, the
closed-form accuracy/decrease/complexity bounds that govern them, and a
benchmark harness.
"""

from .core import (
    DFOError,
    EvaluationError,
    NoiseModel,
    Oracle,
    RngStream,
)
from .directions import (
    DirectionSet,
    coordinate_directions,
    gaussian_directions,
    orthonormal_directions,
)
from .estimators import (
    ConditioningError,
    GradientEstimate,
    UndefinedMetricError,
    cgsg,
    gsg,
    interpolation_gradient,
    relative_error,
)
from .bounds import (
    InfeasibleConstantsError,
    LineSearchConstants,
    NoFeasibleSigmaError,
    ProblemConstants,
    alpha_bar,
    convex_gap_bound,
    eta,
    gaussian_smoothing_constants,
    gsg_covariance_top,
    gsg_misses,
    gsg_sample_size,
    gsg_variance_bound,
    interpolation_error,
    interpolation_error_bound,
    moment_identity_check,
    nonconvex_avg_bound,
    sigma_range,
    strongly_convex_certificate,
)
from .optimizer import (
    AdamConfig,
    EstimatorConfig,
    FixedStepConfig,
    LineSearchConfig,
    OptimizationTrace,
    StallError,
    armijo_holds,
    backtracking_step,
    minimize,
)
from .testfns import (
    TestFunction,
    corpus,
    get_function,
    quadratic,
    rosenbrock,
    synthetic_sin,
)

__version__ = "0.1.0"
