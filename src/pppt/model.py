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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecodingRule",
    "NetworkConfig",
    "ThroughputValue",
    "THROUGHPUT_KINDS",
    "THROUGHPUT_METHODS",
]


class DecodingRule(enum.Enum):
    """How the typical receiver treats the interfering signals."""

    IAN = "ian"  # treat every interferer as noise
    OPT = "opt"  # jointly decode interferers closer than the link distance


THROUGHPUT_METHODS = ("cognitive", "fixed_rate")
THROUGHPUT_KINDS = ("quadrature", "lower_bound", "upper_bound", "asymptote")


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the bipolar Poisson network.

    lam
        Transmitter density in nodes/m^2, > 0.
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
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"density lam must be finite and > 0, got {self.lam}")
        if not (math.isfinite(self.d) and self.d > 0):
            raise ValueError(f"link distance d must be finite and > 0, got {self.d}")
        if not (math.isfinite(self.alpha) and self.alpha > 2):
            raise ValueError(f"path-loss exponent alpha must be > 2, got {self.alpha}")

    @property
    def mu(self) -> float:
        """Expected number of transmitters in a disc of radius d: lam*pi*d^2.

        Every closed-form expression in this package depends on (lam, d)
        only through this product.
        """
        return self.lam * math.pi * self.d * self.d


@dataclass(frozen=True)
class ThroughputValue:
    """A spatial throughput in bits/s/Hz/m^2, tagged with its provenance.

    ``method`` is "cognitive" (rates tuned per realization) or "fixed_rate"
    (predetermined rates, outages allowed); ``kind`` records how the number
    was obtained (quadrature / lower_bound / upper_bound / asymptote).
    """

    value: float
    method: str
    rule: DecodingRule
    kind: str

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0):
            raise ValueError(f"throughput must be finite and >= 0, got {self.value}")
        if self.method not in THROUGHPUT_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.kind not in THROUGHPUT_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not isinstance(self.rule, DecodingRule):
            raise ValueError(f"rule must be a DecodingRule, got {self.rule!r}")


def rng_from_seed(key: tuple[int, int]) -> np.random.Generator:
    """PCG64 generator keyed by a (seed, stream) pair.

    Each pair yields an independent, reproducible stream; a Monte Carlo run
    seeded ``s`` reads its counts from (s, 0) and its radii from (s, 1).
    np.random.SeedSequence wants non-negative entropy, so negative integers
    are folded into the 64-bit range and any integer is a valid seed.
    """
    return np.random.default_rng(tuple(int(k) % 2**64 for k in key))
