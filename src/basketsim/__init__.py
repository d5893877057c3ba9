"""Bayesian basket-trial designs with information borrowing, plus the
simulation machinery to calibrate, tune and compare them."""

__version__ = "0.1.0"

# BLAS on one thread, set before numpy loads, so --jobs is a run's only parallelism
import os as _os
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .bma import BmaParams
from .core import (
    BasketData,
    BasketSimError,
    BetaShape,
    CalibrationError,
    ConfigurationError,
    NumericError,
    Scenario,
    beta_tails,
)
from .engine import (
    DESIGNS,
    DesignConfig,
    OperatingCharacteristics,
    ReplicateResult,
    outcome_table,
    run_design,
)
from .fujikawa import FujikawaParams
from .hierarchical import BhmParams, ExnexParams
from .powerprior import CppParams
from .tuning import TuningResult, grid_search, null_scenario, study

__all__ = [
    "BasketData", "BasketSimError", "BetaShape", "BhmParams", "BmaParams", "CalibrationError",
    "ConfigurationError", "CppParams", "DESIGNS", "DesignConfig", "ExnexParams",
    "FujikawaParams", "NumericError", "OperatingCharacteristics", "ReplicateResult",
    "Scenario", "TuningResult", "beta_tails", "grid_search", "null_scenario",
    "outcome_table", "run_design", "study",
]
