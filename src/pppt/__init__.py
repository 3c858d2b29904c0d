"""Spatial throughput of bipolar Poisson wireless networks.

Closed-form rate statistics, throughput bounds and optimizers for two
decoding rules (interference as noise, and joint decoding of the strongest
interferers), the fixed-rate baseline, and a Monte Carlo simulator that
quantifies the closest-interferer approximation behind the closed forms.
"""

__version__ = "0.1.0"

from . import fixed_rate, ian, numerics, opt, simulation
from .model import DecodingRule, NetworkConfig, ThroughputValue
from .numerics import QuadratureSpec, SeriesTruncation

__all__ = [
    "DecodingRule",
    "NetworkConfig",
    "QuadratureSpec",
    "SeriesTruncation",
    "ThroughputValue",
    "__version__",
    "fixed_rate",
    "ian",
    "numerics",
    "opt",
    "simulation",
]
