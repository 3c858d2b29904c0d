"""Network model primitives shared by the analytic and simulation modules.

Transmitters form a homogeneous Poisson point process on the plane; each one
has a dedicated receiver at a fixed distance ``d`` in a uniformly random
direction (the bipolar model).  Statistics of the whole network are read off
a typical link whose receiver sits at the origin: conditioning a homogeneous
process on an extra point does not change its law, so the added pair is
representative.

Receivers of the interfering pairs are never materialized: every quantity
computed downstream (interference, nearest-interferer distance, rates)
depends only on the transmitters' distances to the typical receiver.  The
window kernel in ``simulation`` is the only sampler and draws exactly those
distances; ``rng_from_seed`` keys its two streams per run, one for the
counts and one for the radii.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecodingRule",
    "NetworkConfig",
    "ThroughputValue",
]


class DecodingRule(enum.Enum):
    """How the typical receiver treats the interfering signals."""

    IAN = "ian"  # treat every interferer as noise
    OPT = "opt"  # jointly decode interferers closer than the link distance


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the bipolar Poisson network.

    lam
        Transmitter density in nodes/m^2, > 0, with 2.2e-308 <= lam*pi*d^2 <= 1e7.
    d
        TX-RX separation in meters, > 0.
    alpha
        Path-loss exponent, > 2.  At alpha <= 2 the aggregate interference
        of a planar Poisson field has infinite mean and none of the
        throughput expressions converge.
    """

    lam: float
    d: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 0):
            raise ValueError(f"link distance d must be finite and > 0, got {self.d}")
        if not (math.isfinite(self.alpha) and self.alpha > 2):
            raise ValueError(f"path-loss exponent alpha must be > 2, got {self.alpha}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"density lam must be finite and > 0, got {self.lam}")
        if not self.mu <= 1e7:  # 10x the documented 1e6; the joint rule keeps ~mu series terms
            raise ValueError(f"mu = lam*pi*d^2 must be <= 1e7, got {self.mu:g}")
        if not self.mu >= sys.float_info.min:  # 0 or subnormal: lam*pi*d^2 underflowed
            raise ValueError(f"mu = lam*pi*d^2 must be a normal double, got {self.mu:g}")

    @property
    def mu(self) -> float:
        """Expected number of transmitters in a disc of radius d: lam*pi*d^2.

        Every closed form and every simulated rate in this package depends
        on (lam, d) only through this product.
        """
        return self.lam * math.pi * self.d * self.d


@dataclass(frozen=True)
class ThroughputValue:
    """A spatial throughput in bits/s/Hz/m^2, finite and >= 0.

    Which throughput it is (rule, cognitive or fixed-rate, quadrature or
    bound) is the function that returned it.
    """

    value: float

    def __post_init__(self):
        _check_throughput("throughput", self.value)


def _check_throughput(what: str, value: float) -> None:
    """Raise unless ``value`` is finite and >= 0.  A value that is not finite
    is a computation past the double range, an ArithmeticError; a negative
    one is bad input, a ValueError."""
    if not (math.isfinite(value) and value >= 0):
        error = ValueError if math.isfinite(value) else ArithmeticError
        raise error(f"{what} must be finite and >= 0, got {value}")


def rng_from_seed(key: tuple[int, int]) -> np.random.Generator:
    """PCG64 generator keyed by a (seed, stream) pair.

    Each pair yields an independent, reproducible stream; a Monte Carlo run
    seeded ``s`` reads its counts from (s, 0) and its radii from (s, 1).
    np.random.SeedSequence wants non-negative entropy, so negative integers
    are folded into the 64-bit range and any integer is a valid seed.
    """
    return np.random.default_rng(tuple(int(k) % 2**64 for k in key))
