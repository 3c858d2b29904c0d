"""Monte Carlo estimation of spatial throughput on sampled realizations.

Estimators measure the typical link exactly as the analysis does: one
receiver at the origin, full aggregate interference from every transmitter
in a finite window, no mutual-achievability coupling between links.  Every
per-link statistic (aggregate interference, nearest distance, decode-set
powers) depends on the interferer positions only through their distances to
the origin, so the window kernel samples squared radii directly — one
uniform per point — and never materializes planar coordinates.  It is the
only sampler in the package, and every rate, per realization or per batch,
comes from its statistics through one rate law.

Only the near field r < R0 = min(W, 8*max(d, 1/sqrt(lam))) is drawn; the
ring from R0 to the window radius W adds its Campbell mean (Haenggi &
Ganti, FnT 2009, sec. 3) to every far-field sum.  ``_NEAR_FACTOR =
math.inf`` draws the whole window, the exact reference mode.

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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ian as _ian_analytic
from . import opt as _opt_analytic
from .fixed_rate import FixedRateSolution
from .model import DecodingRule, NetworkConfig, rng_from_seed
from .numerics import _LN2

__all__ = [
    "INTERFERENCE_MODES",
    "RATE_CAP",
    "RATE_MODES",
    "SimulationEstimate",
    "default_window_radius",
    "estimate_cognitive",
    "estimate_fixed_rate",
    "tightness_report",
]

INTERFERENCE_MODES = ("full", "closest_only")
RATE_MODES = ("exact_powers", "lower_bound_powers")

# Stands in for the infinite rate of a realization with no interference at
# all: an empty window, or an empty noise set under joint decoding.  Finite
# rates are kept, also above it.  Past the near field every realization
# carries the ring's mean, so the cap applies only where the window lies
# inside the near field.
RATE_CAP = 30.0

_CHUNK_POINTS = 1 << 16

_NEAR_FACTOR = 8.0  # R0 over max(d, 1/sqrt(lam))

# fewest realizations an estimator accepts: below it the standard error is
# itself too noisy to judge a gap by
_MIN_REALIZATIONS = 100


@dataclass(frozen=True)
class SimulationEstimate:
    """Monte Carlo mean and standard error of a spatial throughput."""

    mean: float
    stderr: float
    n_realizations: int
    seed: int
    interference_mode: str
    rate_mode: str | None = None

    def __post_init__(self):
        if not (self.mean >= 0 and math.isfinite(self.mean)):
            raise ValueError(f"mean must be finite and >= 0, got {self.mean}")
        if not (self.stderr >= 0 and math.isfinite(self.stderr)):
            raise ValueError(f"stderr must be finite and >= 0, got {self.stderr}")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if self.interference_mode not in INTERFERENCE_MODES:
            raise ValueError(f"unknown interference mode {self.interference_mode!r}")
        if self.rate_mode is not None and self.rate_mode not in RATE_MODES:
            raise ValueError(f"unknown rate mode {self.rate_mode!r}")


def default_window_radius(cfg: NetworkConfig) -> float:
    """max(100*d, 20/sqrt(lam)): the outer edge of the mean far ring, which
    keeps the clipped interference below ~1e-3 of the total for alpha = 4."""
    return max(100.0 * cfg.d, 20.0 / math.sqrt(cfg.lam))


def _check_realizations(n_realizations: int):
    if n_realizations < _MIN_REALIZATIONS:
        raise ValueError(f"need at least {_MIN_REALIZATIONS} realizations for a usable "
                         f"standard error, got {n_realizations}")


@dataclass(frozen=True)
class _RealizationStats:
    """Distance-based sufficient statistics of a batch of realizations."""

    s_dec: np.ndarray       # power sum over the decode set (r < d)
    s_far: np.ndarray       # power sum over the noise set (r >= d)
    n_dec: np.ndarray       # decode-set sizes
    r2_min: np.ndarray      # squared nearest-interferer distance (inf if none)
    r2_far_min: np.ndarray  # squared nearest noise-set distance (inf if none)


def _collect_stats(cfg: NetworkConfig, window_radius: float, seed: int,
                   n_realizations: int, chunk_points: int = _CHUNK_POINTS) -> _RealizationStats:
    near = min(window_radius, _NEAR_FACTOR * max(cfg.d, 1.0 / math.sqrt(cfg.lam)))
    mean_count = cfg.lam * math.pi * near * near
    r2_scale = near * near
    # the Campbell mean of the ring near <= r < W; 0 when near = W
    ring_mean = 2.0 * math.pi * cfg.lam * (near ** (2.0 - cfg.alpha)
                                           - window_radius ** (2.0 - cfg.alpha)) / (cfg.alpha - 2.0)
    d2 = cfg.d * cfg.d
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
        p = r2 ** (-half_alpha)

        # the decode set holds about lam*pi*d^2 points per realization: sum
        # it by index, then blank it out of the far-field reductions
        idx = np.flatnonzero(r2 < d2)
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
                      mode: str, rate_mode: str) -> np.ndarray:
    """The cognitive rate law, log2(1 + share * SIR) / share per realization.

    share = 1 under interference as noise and 1 + n_dec under joint
    decoding, whose decode set holds the interferers strictly closer than
    the link distance (ties go to the noise set); a realization with no
    interference gets RATE_CAP.  As the analytic chains do, ``closest_only``
    replaces the (noise-set) interference by its nearest interferer's power
    and ``lower_bound_powers`` each decoded power by the link's own;
    ``exact_powers`` keeps the decoded powers.
    """
    half_alpha = cfg.alpha / 2.0
    sig = cfg.d ** (-cfg.alpha)
    with np.errstate(divide="ignore", over="ignore"):
        if rule is DecodingRule.IAN:
            share, numerator = 1.0, sig
            if mode == "full":
                interference = stats.s_dec + stats.s_far
            else:
                interference = stats.r2_min ** (-half_alpha)
        else:
            share = 1.0 + stats.n_dec
            if mode == "full":
                interference = stats.s_far
            else:
                interference = stats.r2_far_min ** (-half_alpha)
            numerator = sig + stats.s_dec if rate_mode == "exact_powers" else share * sig
        rate = np.log1p(np.divide(numerator, interference)) / (_LN2 * share)
    return np.where(np.isfinite(rate), rate, RATE_CAP)


def _sample(cfg: NetworkConfig, n_realizations: int, seed: int, window_radius: float | None,
            mode: str, rate_mode: str) -> _RealizationStats:
    """One validated pass of the window kernel, shared by every estimator.

    The window is the default one, or a given finite radius above d (a
    smaller one leaves the link's own disc partly unsampled).
    """
    if mode not in INTERFERENCE_MODES:
        raise ValueError(f"interference mode must be one of {INTERFERENCE_MODES}, got {mode!r}")
    if rate_mode not in RATE_MODES:
        raise ValueError(f"rate mode must be one of {RATE_MODES}, got {rate_mode!r}")
    _check_realizations(n_realizations)
    if window_radius is None:
        window_radius = default_window_radius(cfg)
    elif not (math.isfinite(window_radius) and window_radius > cfg.d):
        raise ValueError(f"window_radius must be finite and > d = {cfg.d}, got {window_radius}")
    return _collect_stats(cfg, window_radius, seed, n_realizations)


def _estimate(cfg: NetworkConfig, rule: DecodingRule, values: np.ndarray, seed: int,
              mode: str, rate_mode: str) -> SimulationEstimate:
    """lam times the sample mean of the per-realization ``values``, with its
    standard error; the rate mode is recorded under joint decoding only."""
    return SimulationEstimate(
        mean=cfg.lam * float(np.mean(values)),
        stderr=cfg.lam * float(np.std(values, ddof=1)) / math.sqrt(len(values)),
        n_realizations=len(values), seed=seed, interference_mode=mode,
        rate_mode=rate_mode if rule is DecodingRule.OPT else None,
    )


def estimate_cognitive(cfg: NetworkConfig, rule: DecodingRule, mode: str = "full",
                       n_realizations: int = 10_000, seed: int = 0,
                       rate_mode: str = "exact_powers",
                       window_radius: float | None = None) -> SimulationEstimate:
    """Simulated cognitive spatial throughput: lam times the sample mean of
    the per-realization maximum rate, with its standard error."""
    stats = _sample(cfg, n_realizations, seed, window_radius, mode, rate_mode)
    return _estimate(cfg, rule, _rates_from_stats(cfg, stats, rule, mode, rate_mode),
                     seed, mode, rate_mode)


def estimate_fixed_rate(cfg: NetworkConfig, solution: FixedRateSolution,
                        n_realizations: int = 10_000, seed: int = 0, mode: str = "full",
                        rate_mode: str = "lower_bound_powers",
                        window_radius: float | None = None) -> SimulationEstimate:
    """Simulated fixed-rate spatial throughput of ``solution`` under its rule.

    A realization succeeds when the predetermined rate for its realized
    joint-decode count is achievable there; the estimate is lam times the
    sample mean of rate * success.  The default power accounting matches
    the analytic optimizer that produced ``solution``; counts beyond the
    solution's table (vanishing Poisson tail) count as outages.
    """
    rule = solution.rule
    stats = _sample(cfg, n_realizations, seed, window_radius, mode, rate_mode)
    achievable = _rates_from_stats(cfg, stats, rule, mode, rate_mode)
    if rule is DecodingRule.IAN:
        target = np.full(n_realizations, solution.rates[0])
    else:
        counts = stats.n_dec.astype(np.intp)
        inside = counts < len(solution.rates)
        target = np.where(inside, solution.rates[np.minimum(counts, len(solution.rates) - 1)], np.inf)
    contrib = np.where(achievable >= target, target, 0.0)
    return _estimate(cfg, rule, contrib, seed, mode, rate_mode)


def tightness_report(cfgs, n_realizations: int = 10_000, seed: int = 0,
                     window_radius: float | None = None) -> list[dict]:
    """Analytic vs full-interference simulated throughput, per configuration.

    One sampling pass per configuration feeds both decoding rules, so the
    two simulated columns see identical realizations.  Decoded powers are
    counted as ``lower_bound_powers``, the power accounting of the analytic
    joint-decoding chain.
    """
    mode, rate_mode = "full", "lower_bound_powers"
    rows = []
    for cfg in cfgs:
        stats = _sample(cfg, n_realizations, seed, window_radius, mode, rate_mode)
        sim_ian, sim_opt = (_estimate(cfg, rule, _rates_from_stats(cfg, stats, rule, mode, rate_mode),
                                      seed, mode, rate_mode)
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
