"""Monte Carlo estimation of spatial throughput on sampled realizations.

Estimators measure the typical link exactly as the analysis does: one
receiver at the origin, full aggregate interference from every transmitter
in a finite window, no mutual-achievability coupling between links, and
each jointly decoded interferer counted at the link's own power, a lower
bound on the symmetric joint-decoding rate.  Every
per-link statistic (aggregate interference, nearest distance, decode-set
powers) depends on the interferer positions only through their distances to
the origin, so the window kernel samples squared radii directly — one
uniform per point — and never materializes planar coordinates.  It is the
only sampler in the package, and every rate, per realization or per batch,
comes from its statistics through the rate law of :mod:`pppt.ian`.

Distances are measured in units of the link distance d: without fading
the SIR of a Poisson field is scale-free, so the link's own power is 1 and
the decode set r/d < 1, and the rates depend on (lam, d) only through
mu = lam*pi*d^2, as the closed forms do.  lam = 1e-200 at d = 1e100
estimates 1e-200 times the throughput at lam = 1, d = 1.

Only the near field r < R0 = min(W, 8*max(d, 1/sqrt(lam))) is drawn; the
ring from R0 to the window radius W adds its Campbell mean (Haenggi &
Ganti, FnT 2009, sec. 3) to every far-field sum.  ``_NEAR_FACTOR =
math.inf`` draws the whole window, the exact reference mode.  The ring's
mean keeps every rate finite, unless the window lies inside the near field
or the powers underflow (alpha far above 60).

A run seeded with ``s`` draws all its interferer counts in one call from
the stream keyed by (s, 0), and the squared radii, realization after
realization, from the stream keyed by (s, 1), one call per chunk.  Every
statistic is reduced per realization: far-field sums and minima by
``reduceat`` over that realization's points, decode-set sums by
``bincount`` in draw order.  Results are therefore independent of chunk
sizes and reproducible across runs, and realization ``i`` is the same in
every run of at least ``i + 1`` realizations.  Sample moments are reduced
with numpy's pairwise summation, which is deterministic for a fixed
realization count.

The last sampling pass is kept and handed out again when an estimator
asks for the same draw (configuration, realization count, seed, window),
so every estimate at one density, whatever its rule, interference mode or
estimator, comes from one pass.  It holds about 40 bytes per realization (five float arrays)
until the next pass, and its arrays are read-only.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import ian as _ian_analytic
from . import opt as _opt_analytic
from .fixed_rate import FixedRateSolution
from .ian import _rate
from .model import DecodingRule, NetworkConfig, _check_throughput, rng_from_seed

__all__ = [
    "INTERFERENCE_MODES",
    "SimulationEstimate",
    "default_window_radius",
    "estimate_cognitive",
    "estimate_fixed_rate",
    "tightness_report",
]

INTERFERENCE_MODES = ("full", "closest_only")

_CHUNK_POINTS = 1 << 16

_NEAR_FACTOR = 8.0  # R0 over max(d, 1/sqrt(lam))

# fewest realizations an estimator accepts: below it the standard error is
# itself too noisy to judge a gap by
_MIN_REALIZATIONS = 100


@dataclass(frozen=True)
class SimulationEstimate:
    """Monte Carlo mean and standard error of a spatial throughput, both
    finite and >= 0.

    The realization count, seed and interference mode that produced it are
    the estimator's own arguments.
    """

    mean: float
    stderr: float

    def __post_init__(self):
        _check_throughput("mean", self.mean)
        _check_throughput("stderr", self.stderr)


def default_window_radius(cfg: NetworkConfig) -> float:
    """max(100*d, 20/sqrt(lam)): the outer edge of the mean far ring, which
    keeps the clipped interference below ~1e-3 of the total for alpha = 4.

    At smaller alpha the clipped field biases the throughput up against the
    infinite plane: +3.8-9.9% at alpha = 2.5, +29-61% at 2.2 and +167-364%
    at 2.05 (lam in {0.01, 0.1, 1, 10}, d = 1), until the simulator samples
    the infinite plane."""
    return max(100.0 * cfg.d, 20.0 / math.sqrt(cfg.lam))


@dataclass(frozen=True)
class _RealizationStats:
    """Distance-based sufficient statistics of a batch of realizations."""

    s_dec: np.ndarray       # power sum over the decode set (r < d), in d^-alpha
    s_far: np.ndarray       # power sum over the noise set (r >= d), in d^-alpha
    n_dec: np.ndarray       # decode-set sizes
    r2_min: np.ndarray      # squared nearest-interferer distance in d^2 (inf if none)
    r2_far_min: np.ndarray  # squared nearest noise-set distance in d^2 (inf if none)

    def __post_init__(self):
        # one pass may be shared by several estimators through _sample's cache
        for arr in (self.s_dec, self.s_far, self.n_dec, self.r2_min, self.r2_far_min):
            arr.setflags(write=False)


def _collect_stats(cfg: NetworkConfig, window_radius: float, seed: int,
                   n_realizations: int, chunk_points: int = _CHUNK_POINTS) -> _RealizationStats:
    """The statistics of ``n_realizations`` realizations in units of d (the
    link's power is 1); ``window_radius`` is in metres."""
    window = window_radius / cfg.d
    near = min(window_radius, _NEAR_FACTOR * max(cfg.d, 1.0 / math.sqrt(cfg.lam))) / cfg.d
    mean_count = cfg.mu * near * near
    r2_scale = near * near
    # the Campbell mean of the ring near <= r < W; 0 when near = W
    ring_mean = 2.0 * cfg.mu * (near ** (2.0 - cfg.alpha)
                                - window ** (2.0 - cfg.alpha)) / (cfg.alpha - 2.0)
    half_alpha = cfg.alpha / 2.0
    n = n_realizations

    s_dec = np.zeros(n)
    s_far = np.zeros(n)
    n_dec = np.zeros(n)
    r2_min = np.full(n, np.inf)
    r2_far_min = np.full(n, np.inf)

    counts = rng_from_seed((seed, 0)).poisson(mean_count, n)
    ends = np.cumsum(counts)
    radii = rng_from_seed((seed, 1))

    start = 0
    while start < n:
        base = int(ends[start - 1]) if start else 0
        # as many realizations as fit in chunk_points, and at least one
        stop = max(start + 1, int(np.searchsorted(ends, base + chunk_points, "right")))
        r2 = radii.random(int(ends[stop - 1]) - base)
        r2 *= r2_scale

        # reduce over the realizations that have points: each segment then
        # runs to the next one's first point, so it holds exactly its own
        hit = start + np.flatnonzero(counts[start:stop])
        first = ends[hit] - counts[hit] - base
        r2_min[hit] = np.minimum.reduceat(r2, first)
        with np.errstate(over="ignore"):  # a power past the double range is inf
            p = r2 ** (-half_alpha)

        # the decode set holds about mu points per realization: sum it by
        # index, then blank it out of the far-field reductions
        idx = np.flatnonzero(r2 < 1.0)
        owner = np.searchsorted(first, idx, "right") - 1
        s_dec[hit] = np.bincount(owner, weights=p[idx], minlength=len(hit))
        n_dec[hit] = np.bincount(owner, minlength=len(hit))
        p[idx] = 0.0
        r2[idx] = np.inf
        s_far[hit] = np.add.reduceat(p, first)
        r2_far_min[hit] = np.minimum.reduceat(r2, first)
        start = stop

    return _RealizationStats(s_dec, s_far + ring_mean, n_dec, r2_min, r2_far_min)


def _rates_from_stats(cfg: NetworkConfig, stats: _RealizationStats, rule: DecodingRule,
                      mode: str) -> np.ndarray:
    """The cognitive rate law, log2(1 + share * SIR) / share per realization.

    share = 1 + n for n jointly decoded interferers, each at the link's own
    power as in the paper.  Under joint decoding the decode set holds the
    interferers strictly closer than the link distance (ties go to the
    noise set); interference as noise is the same law with an empty decode
    set, so every interferer is noise.  As the analytic chains do,
    ``closest_only`` replaces the noise-set interference by its nearest
    interferer's power.  No noise interference gives rate inf, a noise
    power past the double range 0.
    """
    if mode not in INTERFERENCE_MODES:
        raise ValueError(f"interference mode must be one of {INTERFERENCE_MODES}, got {mode!r}")
    if rule is DecodingRule.IAN:
        n, s_noise, r2_noise = 0.0, stats.s_dec + stats.s_far, stats.r2_min
    else:
        n, s_noise, r2_noise = stats.n_dec, stats.s_far, stats.r2_far_min
    with np.errstate(divide="ignore"):
        log_noise = np.log(s_noise) if mode == "full" else -cfg.alpha / 2.0 * np.log(r2_noise)
    return _rate(1.0 + n, -log_noise)


@functools.lru_cache(maxsize=1)
def _sample(cfg: NetworkConfig, n_realizations: int, seed: int,
            window_radius: float | None) -> _RealizationStats:
    """One validated pass of the window kernel, shared by every estimator.

    The window is the default one, or a given finite radius above d (a
    smaller one leaves the link's own disc partly unsampled).  The key is
    the draw itself: the pass is a deterministic function of these four
    arguments, and the rule and mode only read it, so the last pass is
    reused for any estimate at the same draw.  It holds about 40 bytes per
    realization until the next pass, and its arrays are read-only.  Module
    constants are not part of the key: clear the cache after changing one.
    """
    if n_realizations < _MIN_REALIZATIONS:
        raise ValueError(f"need at least {_MIN_REALIZATIONS} realizations for a usable "
                         f"standard error, got {n_realizations}")
    if window_radius is None:
        window_radius = default_window_radius(cfg)
    elif not (math.isfinite(window_radius) and window_radius > cfg.d):
        raise ValueError(f"window_radius must be finite and > d = {cfg.d}, got {window_radius}")
    return _collect_stats(cfg, window_radius, seed, n_realizations)


def _estimate(cfg: NetworkConfig, values: np.ndarray) -> SimulationEstimate:
    """lam times the sample mean of the per-realization ``values``, with its
    standard error.  An infinite value gives an infinite mean, an ArithmeticError."""
    with np.errstate(invalid="ignore"):
        return SimulationEstimate(
            mean=cfg.lam * float(np.mean(values)),
            stderr=cfg.lam * float(np.std(values, ddof=1)) / math.sqrt(len(values)),
        )


def estimate_cognitive(cfg: NetworkConfig, rule: DecodingRule, mode: str = "full",
                       n_realizations: int = 10_000, seed: int = 0,
                       window_radius: float | None = None) -> SimulationEstimate:
    """Simulated cognitive spatial throughput: lam times the sample mean of
    the per-realization maximum rate, with its standard error."""
    stats = _sample(cfg, n_realizations, seed, window_radius)
    return _estimate(cfg, _rates_from_stats(cfg, stats, rule, mode))


def estimate_fixed_rate(cfg: NetworkConfig, solution: FixedRateSolution,
                        n_realizations: int = 10_000, seed: int = 0, mode: str = "full",
                        window_radius: float | None = None) -> SimulationEstimate:
    """Simulated fixed-rate spatial throughput of ``solution`` under its rule.

    A realization succeeds when the predetermined rate for its realized
    joint-decode count is achievable there; the estimate is lam times the
    sample mean of rate * success, with the power accounting of the
    analytic optimizer that produced ``solution``; counts beyond the
    solution's table (vanishing Poisson tail) count as outages.
    """
    rule = solution.rule
    stats = _sample(cfg, n_realizations, seed, window_radius)
    achievable = _rates_from_stats(cfg, stats, rule, mode)
    # the noise rule decodes no interferer; a count past the table meets
    # the rate 0 appended to it, an outage also where the rate is inf
    counts = stats.n_dec.astype(np.intp) if rule is DecodingRule.OPT else 0
    target = np.append(solution.rates, 0.0)[np.minimum(counts, len(solution.rates))]
    contrib = np.where(achievable >= target, target, 0.0)
    return _estimate(cfg, contrib)


def tightness_report(cfgs, n_realizations: int = 10_000, seed: int = 0,
                     window_radius: float | None = None) -> list[dict]:
    """Analytic vs full-interference simulated throughput, per configuration.

    One sampling pass per configuration feeds both decoding rules, so the
    two simulated columns see identical realizations.  They are
    :func:`estimate_cognitive`'s values at the same draw.
    """
    rows = []
    for cfg in cfgs:
        stats = _sample(cfg, n_realizations, seed, window_radius)
        sim_ian, sim_opt = (_estimate(cfg, _rates_from_stats(cfg, stats, rule, "full"))
                            for rule in (DecodingRule.IAN, DecodingRule.OPT))
        c_ian = _ian_analytic.cognitive_throughput(cfg).value
        c_opt = _opt_analytic.cognitive_throughput(cfg).value
        rows.append({
            "lam": cfg.lam,
            "c_ian_analytic": c_ian,
            "c_opt_analytic": c_opt,
            "c_ian_simulated": sim_ian.mean,
            "c_ian_stderr": sim_ian.stderr,
            "c_opt_simulated": sim_opt.mean,
            "c_opt_stderr": sim_opt.stderr,
            "ratio_analytic": c_ian / c_opt,
            "ratio_simulated": sim_ian.mean / sim_opt.mean,
        })
    return rows
