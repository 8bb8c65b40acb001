"""Joint radar precoder and IRS phase-shift design.

Alternates a projected-gradient solve of the transmit covariance with
Riemannian gradient ascent of the unit-modulus IRS phase vector to
maximize a weighted sum of radar and communication receiver SNRs.
"""

from .config import ConfigError, RunConfig, parse_config
from .driver import (ConvergenceTrace, ExperimentResult, alternate,
                     run_convergence_experiment, run_power_sweep)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConvergenceTrace", "ExperimentResult", "RunConfig",
    "__version__", "alternate", "parse_config", "run_convergence_experiment",
    "run_power_sweep",
]
