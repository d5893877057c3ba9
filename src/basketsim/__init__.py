"""Bayesian basket-trial designs with information borrowing, plus the
simulation machinery to calibrate, tune and compare them."""

__version__ = "0.1.0"

from .bma import (
    BmaParams,
    Partition,
    bma_posterior_means,
    bma_tail_probs,
    enumerate_partitions,
    log_marginal_likelihood,
    posterior_model_probs,
)
from .core import (
    BasketData,
    BasketSimError,
    BetaShape,
    CalibrationError,
    ConfigurationError,
    NullRate,
    NumericError,
    QuadratureError,
    Scenario,
    beta_mean,
    beta_tail,
    integrate,
    log_beta_function,
)
from .engine import (
    DESIGNS,
    DesignConfig,
    OperatingCharacteristics,
    ReplicateResult,
    correct_decisions,
    generate_trial,
    run_design,
    simulate,
)
from .fujikawa import (
    FujikawaParams,
    fujikawa_posterior,
    fujikawa_weights,
    individual_posteriors,
    jsd,
)
from .hierarchical import BhmParams, ExnexParams
from .powerprior import (
    CppParams,
    PowerPriorWeights,
    alpha0,
    build_weights,
    cpp_weight,
    hellinger_gamma,
    ks_statistic,
    power_prior_posterior,
)
from .tuning import TuningResult, calibrate_lambda, default_grid, grid_search

__all__ = [name for name in dir() if not name.startswith("_")]
