"""Monte Carlo estimation of spatial throughput on sampled realizations.

Estimators measure the typical link exactly as the analysis does: one
receiver at the origin, full aggregate interference from every transmitter
on the plane, no mutual-achievability coupling between links, and
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

Only the window, the disc r < W = 8*max(d, 1/sqrt(lam)) by default, is
drawn, as two independent Poisson fields: the decode disc r < d and the
noise ring d <= r < W (a Poisson field restricted to disjoint sets,
Haenggi & Ganti, FnT 2009, sec. 2).  The infinite plane beyond the window
adds its Campbell mean 2*mu*(W/d)^(2-alpha)/(alpha-2) (sec. 3) to every
noise-set sum.  That mean keeps every full-interference rate finite
unless the powers underflow, as mu^(alpha/2) nears 5e-324 (mu ~ 1e-11 at
alpha = 60, 1e-32 at 20, 1e-162 at 4): the estimate is an ArithmeticError.
So is a window whose (W/d)^2 overflows, 64*pi/mu for the default one
below mu ~ 1.1e-306.

A run seeded with ``s`` draws all its (disc, ring) count pairs in one call
from the stream keyed by (s, 0); the squared radii, realization after
realization and one call per chunk, come from (s, 1) for the disc, uniform
on [0, 1), and from (s, 2) for the ring, uniform on [1, W^2/d^2).  One
reduction serves both fields: power sums and minima per realization by
``reduceat`` over that realization's points.  Results are therefore
independent of chunk sizes and reproducible across runs, and realization
``i`` is the same in every run of at least ``i + 1`` realizations.  Sample
moments are reduced with numpy's pairwise summation, which is
deterministic for a fixed realization count.

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
    "SimulationEstimate",
    "default_window_radius",
    "estimate_cognitive",
    "estimate_fixed_rate",
    "tightness_report",
]

_INTERFERENCE_MODES = ("full", "closest_only")

_CHUNK_POINTS = 1 << 16

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
    """8*max(d, 1/sqrt(lam)): the radius of the disc drawn exactly, about
    64*max(mu, pi) points per realization.  Replacing the plane beyond it by
    its mean moves the throughput by at most 2.2e-5 relative (alpha from
    2.05 to 6, lam from 0.01 to 10, d = 1)."""
    return 8.0 * max(cfg.d, 1.0 / math.sqrt(cfg.lam))


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


def _field_stats(counts: np.ndarray, radii: np.random.Generator, lo: float, width: float,
                 half_alpha: float, chunk_points: int):
    """Power sum and squared nearest distance per realization of a field of
    ``counts[i]`` points in realization ``i``, squared radii uniform on
    [lo, lo + width) (inf where a realization has no point)."""
    n = len(counts)
    s = np.zeros(n)
    r2_min = np.full(n, np.inf)
    ends = np.cumsum(counts)
    start = 0
    while start < n:
        base = int(ends[start - 1]) if start else 0
        # as many realizations as fit in chunk_points, and at least one
        stop = max(start + 1, int(np.searchsorted(ends, base + chunk_points, "right")))
        r2 = radii.random(int(ends[stop - 1]) - base)
        r2 *= width
        r2 += lo
        # reduce over the realizations that have points: each segment then
        # runs to the next one's first point, so it holds exactly its own
        hit = start + np.flatnonzero(counts[start:stop])
        first = ends[hit] - counts[hit] - base
        r2_min[hit] = np.minimum.reduceat(r2, first)
        with np.errstate(over="ignore"):  # a power past the double range is inf
            s[hit] = np.add.reduceat(r2 ** (-half_alpha), first)
        start = stop
    return s, r2_min


def _collect_stats(cfg: NetworkConfig, window_radius: float, seed: int,
                   n_realizations: int, chunk_points: int = _CHUNK_POINTS) -> _RealizationStats:
    """The statistics of ``n_realizations`` realizations in units of d (the
    link's power is 1); ``window_radius`` is in metres."""
    window = window_radius / cfg.d
    ring = window * window - 1.0  # the ring's width in squared radius
    if not math.isfinite(ring):
        raise ArithmeticError(f"the window's (W/d)^2 overflows a double at mu = {cfg.mu:g}")
    # the Campbell mean of the plane beyond the window
    far_mean = 2.0 * cfg.mu * window ** (2.0 - cfg.alpha) / (cfg.alpha - 2.0)
    half_alpha = cfg.alpha / 2.0
    counts = rng_from_seed((seed, 0)).poisson([cfg.mu, cfg.mu * ring], (n_realizations, 2))
    s_dec, r2_dec_min = _field_stats(counts[:, 0], rng_from_seed((seed, 1)), 0.0, 1.0,
                                     half_alpha, chunk_points)
    s_far, r2_far_min = _field_stats(counts[:, 1], rng_from_seed((seed, 2)), 1.0, ring,
                                     half_alpha, chunk_points)
    return _RealizationStats(s_dec, s_far + far_mean, counts[:, 0].astype(float),
                             np.minimum(r2_dec_min, r2_far_min), r2_far_min)


def _decode_view(stats: _RealizationStats, rule: DecodingRule):
    """(decode count, noise power sum, squared nearest noise distance) per
    realization under ``rule``, a :class:`DecodingRule` or its value.  The
    noise rule decodes no interferer, so every interferer is noise."""
    if DecodingRule(rule) is DecodingRule.IAN:
        return 0.0, stats.s_dec + stats.s_far, stats.r2_min
    return stats.n_dec, stats.s_far, stats.r2_far_min


def _rates_from_stats(cfg: NetworkConfig, stats: _RealizationStats, rule: DecodingRule,
                      mode: str) -> np.ndarray:
    """The cognitive rate law, log2(1 + share * SIR) / share per realization.

    share = 1 + n for n jointly decoded interferers, each at the link's own
    power as in the paper.  Under joint decoding the decode set holds the
    interferers strictly closer than the link distance (ties go to the
    noise set); interference as noise is the same law with an empty decode
    set.  As the analytic chains do,
    ``closest_only`` replaces the noise-set interference by its nearest
    interferer's power.  No noise interference gives rate inf, a noise
    power past the double range 0.
    """
    if mode not in _INTERFERENCE_MODES:
        raise ValueError(f"interference mode must be one of {_INTERFERENCE_MODES}, got {mode!r}")
    n, s_noise, r2_noise = _decode_view(stats, rule)
    with np.errstate(divide="ignore"):
        log_noise = np.log(s_noise) if mode == "full" else -cfg.alpha / 2.0 * np.log(r2_noise)
    return _rate(1.0 + n, -log_noise)


@functools.lru_cache(maxsize=1)
def _sample(cfg: NetworkConfig, n_realizations: int, seed: int,
            window_radius: float | None) -> _RealizationStats:
    """One validated pass of the window kernel, shared by every estimator.

    The window, the disc drawn exactly, is the default one or a given
    finite radius above d (a smaller one would put part of the decode set
    in the far mean).  The key is the draw itself: the pass is a
    deterministic function of these four arguments, and the rule and mode
    only read it, so the last pass is reused for any estimate at the same
    draw.  It holds about 40 bytes per realization until the next pass, and
    its arrays are read-only.
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
    sample mean of rate * success; counts beyond the solution's table
    (vanishing Poisson tail) count as outages.
    """
    stats = _sample(cfg, n_realizations, seed, window_radius)
    achievable = _rates_from_stats(cfg, stats, solution.rule, mode)
    # a count past the table meets the rate 0 appended to it, an outage
    # also where the rate is inf
    counts = np.asarray(_decode_view(stats, solution.rule)[0], dtype=np.intp)
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
