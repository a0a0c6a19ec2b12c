"""Bilevel learning of sparsifying-filter regularizers for reconstruction."""

from .errors import (
    BilevelError,
    ConfigError,
    DimensionError,
    DivergenceError,
    FormatError,
    SpdViolationError,
    StepTooLargeError,
    UnboundedError,
)
from .forward import Circulant, ForwardModel, Identity, Mask
from .hypergrad import (
    HypergradResult,
    UpperLoss,
    grad_compare,
    hypergrad_minimizer,
    hypergrad_unrolled_forward,
    hypergrad_unrolled_reverse,
    unrolled_forward_sensitivity,
)
from .losses import (
    DiscrepancyLoss,
    HuberLoss,
    MSELoss,
    Metrics,
    NoiseCorridorLoss,
    SureMCLoss,
    bind_loss,
    loss_value_grad,
    metrics,
    sure_mc,
)
from .lower import (
    THETA_LAYOUT,
    HyperParams,
    LowerProblem,
    pack_theta,
    unpack_theta,
)
from .potentials import CornerRounded1Norm, Quadratic
from .signals import (
    Grid,
    as_filter,
    as_signal,
    circ_conv,
    circ_conv_adjoint,
    circshift,
    filter_spectrum,
    filter_spectrum_max,
)
from .solvers import CGResult, GDConfig, GDResult, cg_solve, gd_minimize
from .upper import (
    Constant,
    DecreaseAdaptive,
    OptTrace,
    PowerLaw,
    StableState,
    TrainSet,
    adam_or_gd_upper,
    ba,
    default_theta_init,
    evaluate_upper,
    grid_search,
    hoag,
    stable_run,
    stable_step,
    ttsa,
)

__version__ = "0.1.0"
