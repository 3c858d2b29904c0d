"""Spatial throughput of bipolar Poisson wireless networks.

Closed-form rate statistics, throughput bounds and optimizers for two
decoding rules (interference as noise, and joint decoding of the strongest
interferers), the fixed-rate baseline, and a Monte Carlo simulator that
quantifies the closest-interferer approximation behind the closed forms.
Importing it loads numpy's OpenBLAS with one thread: all work here is serial.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and not _os.environ.keys() & {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # OpenBLAS reads the variable only while it loads
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from . import fixed_rate, ian, numerics, opt, simulation
from .model import DecodingRule, NetworkConfig

__all__ = [
    "DecodingRule",
    "NetworkConfig",
    "__version__",
    "fixed_rate",
    "ian",
    "numerics",
    "opt",
    "simulation",
]
