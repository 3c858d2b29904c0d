"""Network model primitives shared by the analytic and simulation modules.

Transmitters form a homogeneous Poisson point process on the plane; each one
has a dedicated receiver at a fixed distance ``d`` in a uniformly random
direction (the bipolar model).  Statistics of the whole network are read off
a typical link whose receiver sits at the origin: conditioning a homogeneous
process on an extra point does not change its law, so the added pair is
representative.

Receivers of the interfering pairs are never materialized: every quantity
computed downstream (interference, nearest-interferer distance, rates)
depends only on the transmitter positions relative to the typical receiver.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecodingRule",
    "EmptyWindowError",
    "NetworkConfig",
    "SpatialRealization",
    "ThroughputValue",
    "THROUGHPUT_KINDS",
    "THROUGHPUT_METHODS",
    "nearest_interferer_distance",
    "pathloss_gain",
    "sample_realization",
]


class DecodingRule(enum.Enum):
    """How the typical receiver treats the interfering signals."""

    IAN = "ian"  # treat every interferer as noise
    OPT = "opt"  # jointly decode interferers closer than the link distance


THROUGHPUT_METHODS = ("cognitive", "fixed_rate")
THROUGHPUT_KINDS = ("quadrature", "lower_bound", "upper_bound", "asymptote")


class EmptyWindowError(ValueError):
    """A realization contains no interferer, so nearest-distance queries
    (and interference-limited rates) are undefined or unbounded."""


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


@dataclass(frozen=True, eq=False)
class SpatialRealization:
    """One sampled network: the typical link plus interferers in a disc.

    The typical receiver sits at the origin and its transmitter at distance
    ``cfg.d`` in a random direction.  ``interferer_tx`` holds the (n, 2)
    positions of the interfering transmitters inside ``window_radius`` of
    the origin.  Instances are immutable; the arrays are marked read-only.
    """

    cfg: NetworkConfig
    typical_rx: np.ndarray
    typical_tx: np.ndarray
    interferer_tx: np.ndarray
    window_radius: float
    seed: object

    def __post_init__(self):
        for arr in (self.typical_rx, self.typical_tx, self.interferer_tx):
            arr.setflags(write=False)

    @property
    def n_interferers(self) -> int:
        return self.interferer_tx.shape[0]


def pathloss_gain(x, alpha: float):
    """Power gain of the distance-dependent path-loss law, x**(-alpha).

    ``x`` may be a scalar or an array of distances in meters; all entries
    must be > 0 (the law is undefined at zero separation).
    """
    if not alpha > 2:
        raise ValueError(f"alpha must be > 2, got {alpha}")
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError("pathloss_gain requires strictly positive distances")
    out = x ** (-alpha)
    return float(out) if out.ndim == 0 else out


def _seed_key(seed) -> object:
    # np.random.SeedSequence wants non-negative entropy; fold negative ints
    # into the 64-bit range so "any integer" is a valid seed.
    if isinstance(seed, (int, np.integer)):
        return int(seed) % 2**64
    return tuple(int(s) % 2**64 for s in seed)


def rng_from_seed(seed) -> np.random.Generator:
    """PCG64 generator keyed by an integer or a tuple of integers.

    Tuples give counter-split streams: (base_seed, index) yields
    independent, reproducible streams for parallel sweeps.
    """
    return np.random.default_rng(_seed_key(seed))


def sample_realization(cfg: NetworkConfig, window_radius: float, seed) -> SpatialRealization:
    """Draw one network realization in a disc around the typical receiver.

    The interferer count is Poisson(lam * pi * window_radius^2) and the
    positions are i.i.d. uniform on the disc (radius via sqrt of a uniform,
    angle uniform).  Identical (cfg, window_radius, seed) inputs give
    bit-identical realizations.

    ``window_radius`` must be at least 10 * cfg.d; smaller windows make the
    missing far-field interference visible in the statistics.
    """
    if not window_radius >= 10.0 * cfg.d:
        raise ValueError(
            f"window_radius must be >= 10*d = {10.0 * cfg.d} m, got {window_radius}"
        )
    rng = rng_from_seed(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    typical_tx = cfg.d * np.array([math.cos(theta), math.sin(theta)])
    n = rng.poisson(cfg.lam * math.pi * window_radius * window_radius)
    radii = window_radius * np.sqrt(rng.random(n))
    angles = 2.0 * math.pi * rng.random(n)
    points = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    return SpatialRealization(
        cfg=cfg,
        typical_rx=np.zeros(2),
        typical_tx=typical_tx,
        interferer_tx=points,
        window_radius=float(window_radius),
        seed=seed,
    )


def nearest_interferer_distance(real: SpatialRealization) -> float:
    """Distance from the typical receiver to its closest interferer.

    Raises EmptyWindowError when the realization has no interferer; callers
    treat that case as interference-free (see the simulation module).
    """
    if real.n_interferers == 0:
        raise EmptyWindowError("realization contains no interferer")
    rel = real.interferer_tx - real.typical_rx
    return float(np.min(np.hypot(rel[:, 0], rel[:, 1])))
