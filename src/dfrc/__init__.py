"""Joint radar precoder and IRS phase-shift design.

Alternates an exact solve for the transmit covariance with Riemannian
gradient ascent of the unit-modulus IRS phase vector to maximize a
weighted sum of radar and communication receiver SNRs.

Only the config layer is imported here, so ``import dfrc`` loads no
numpy; the runners live in ``dfrc.driver``.
"""

from .config import ConfigError, RunConfig, parse_config

__version__ = "0.1.0"

__all__ = ["ConfigError", "RunConfig", "__version__", "parse_config"]
