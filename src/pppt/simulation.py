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

Realization ``i`` of a run seeded with ``s`` always draws from the stream
keyed by (s, i), and every statistic is reduced per realization: far-field
sums and minima by ``reduceat`` over that realization's points, decode-set
sums by ``bincount`` in draw order.  Results are therefore independent of
chunk sizes and reproducible across runs.  Sample moments are reduced with
numpy's pairwise summation, which is deterministic for a fixed realization
count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ian as _ian_analytic
from . import opt as _opt_analytic
from .fixed_rate import FixedRateSolution
from .model import DecodingRule, NetworkConfig, rng_from_seed
from .numerics import _LN2, QuadratureSpec, SeriesTruncation

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

# Cap on the rate of a realization with no interference at all: an empty
# window, or an empty noise set under joint decoding.  Past the near field
# every realization carries the ring's mean, so the cap binds only where
# the window lies inside the near field.
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


def _window(cfg: NetworkConfig, window_radius: float | None) -> float:
    """The sampling window radius: the default one, or a given finite radius
    above d (a smaller one leaves the link's own disc partly unsampled)."""
    if window_radius is None:
        return default_window_radius(cfg)
    if not (math.isfinite(window_radius) and window_radius > cfg.d):
        raise ValueError(f"window_radius must be finite and > d = {cfg.d}, got {window_radius}")
    return window_radius


def _check_mode(mode: str, rate_mode: str | None = None):
    if mode not in INTERFERENCE_MODES:
        raise ValueError(f"interference mode must be one of {INTERFERENCE_MODES}, got {mode!r}")
    if rate_mode is not None and rate_mode not in RATE_MODES:
        raise ValueError(f"rate mode must be one of {RATE_MODES}, got {rate_mode!r}")


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

    start = 0
    while start < n:
        rngs = []
        counts = []
        total = 0
        stop = start
        while stop < n and (total < chunk_points or stop == start):
            rng = rng_from_seed((seed, stop))
            c = int(rng.poisson(mean_count))
            rngs.append(rng)
            counts.append(c)
            total += c
            stop += 1
        if total == 0:
            start = stop
            continue

        counts = np.asarray(counts, dtype=np.intp)
        m = len(counts)
        offsets = np.zeros(m, dtype=np.intp)
        np.cumsum(counts[:-1], out=offsets[1:])
        r2 = np.empty(total)
        for rng, o, c in zip(rngs, offsets.tolist(), counts.tolist()):
            rng.random(out=r2[o:o + c])
        r2 *= r2_scale

        sl = slice(start, stop)
        valid = counts > 0
        safe = np.minimum(offsets, total - 1)  # reduceat needs in-range starts
        # empty segments are artifacts of reduceat and are masked out
        r2_min[sl] = np.where(valid, np.minimum.reduceat(r2, safe), np.inf)
        p = r2 ** (-half_alpha)

        # the decode set holds about lam*pi*d^2 points per realization: sum
        # it by index, then blank it out of the far-field reductions
        idx = np.flatnonzero(r2 < d2)
        owner = np.searchsorted(offsets, idx, "right") - 1
        s_dec[sl] = np.bincount(owner, weights=p[idx], minlength=m)
        n_dec[sl] = np.bincount(owner, minlength=m)
        p[idx] = 0.0
        r2[idx] = np.inf
        s_far[sl] = np.where(valid, np.add.reduceat(p, safe), 0.0)
        r2_far_min[sl] = np.where(valid, np.minimum.reduceat(r2, safe), np.inf)
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
    return np.minimum(rate, RATE_CAP)


def _estimate_from_rates(cfg: NetworkConfig, rates: np.ndarray) -> tuple[float, float]:
    mean = cfg.lam * float(np.mean(rates))
    stderr = cfg.lam * float(np.std(rates, ddof=1)) / math.sqrt(len(rates)) if len(rates) > 1 else 0.0
    return mean, stderr


def estimate_cognitive(cfg: NetworkConfig, rule: DecodingRule, mode: str = "full",
                       n_realizations: int = 10_000, seed: int = 0,
                       rate_mode: str = "exact_powers",
                       window_radius: float | None = None) -> SimulationEstimate:
    """Simulated cognitive spatial throughput: lam times the sample mean of
    the per-realization maximum rate, with its standard error."""
    _check_mode(mode, rate_mode)
    _check_realizations(n_realizations)
    window = _window(cfg, window_radius)
    stats = _collect_stats(cfg, window, seed, n_realizations)
    rates = _rates_from_stats(cfg, stats, rule, mode, rate_mode)
    mean, stderr = _estimate_from_rates(cfg, rates)
    return SimulationEstimate(
        mean=mean, stderr=stderr, n_realizations=n_realizations, seed=seed,
        interference_mode=mode, rate_mode=rate_mode if rule is DecodingRule.OPT else None,
    )


def estimate_fixed_rate(cfg: NetworkConfig, rule: DecodingRule, solution: FixedRateSolution,
                        n_realizations: int = 10_000, seed: int = 0, mode: str = "full",
                        rate_mode: str = "lower_bound_powers",
                        window_radius: float | None = None) -> SimulationEstimate:
    """Simulated fixed-rate spatial throughput.

    A realization succeeds when the predetermined rate for its realized
    joint-decode count is achievable there; the estimate is lam times the
    sample mean of rate * success.  The default power accounting matches
    the analytic optimizer that produced ``solution``; counts beyond the
    solution's table (vanishing Poisson tail) count as outages.
    """
    _check_mode(mode, rate_mode)
    _check_realizations(n_realizations)
    if solution.rule is not rule:
        raise ValueError(f"solution was computed for {solution.rule}, not {rule}")
    window = _window(cfg, window_radius)
    stats = _collect_stats(cfg, window, seed, n_realizations)
    achievable = _rates_from_stats(cfg, stats, rule, mode, rate_mode)
    if rule is DecodingRule.IAN:
        target = np.full(n_realizations, solution.rates[0])
    else:
        counts = stats.n_dec.astype(np.intp)
        inside = counts < len(solution.rates)
        target = np.where(inside, solution.rates[np.minimum(counts, len(solution.rates) - 1)], np.inf)
    contrib = np.where(achievable >= target, target, 0.0)
    mean, stderr = _estimate_from_rates(cfg, contrib)
    return SimulationEstimate(
        mean=mean, stderr=stderr, n_realizations=n_realizations, seed=seed,
        interference_mode=mode, rate_mode=rate_mode if rule is DecodingRule.OPT else None,
    )


def tightness_report(cfgs, n_realizations: int = 10_000, seed: int = 0,
                     rate_mode: str = "lower_bound_powers",
                     spec: QuadratureSpec | None = None,
                     truncation: SeriesTruncation | None = None,
                     window_radius: float | None = None) -> list[dict]:
    """Analytic vs full-interference simulated throughput, per configuration.

    One sampling pass per configuration feeds both decoding rules, so the
    two simulated columns see identical realizations.  The default
    ``lower_bound_powers`` mirrors the power accounting of the analytic
    joint-decoding chain; ``exact_powers`` brackets it from above.
    """
    _check_mode("full", rate_mode)
    _check_realizations(n_realizations)
    rows = []
    for cfg in cfgs:
        window = _window(cfg, window_radius)
        stats = _collect_stats(cfg, window, seed, n_realizations)
        ian_rates = _rates_from_stats(cfg, stats, DecodingRule.IAN, "full", rate_mode)
        opt_rates = _rates_from_stats(cfg, stats, DecodingRule.OPT, "full", rate_mode)
        sim_ian, se_ian = _estimate_from_rates(cfg, ian_rates)
        sim_opt, se_opt = _estimate_from_rates(cfg, opt_rates)
        c_ian = _ian_analytic.cognitive_throughput(cfg, spec).value
        c_opt = _opt_analytic.cognitive_throughput(cfg, spec, truncation).value
        rows.append({
            "lam": cfg.lam,
            "c_ian_analytic": c_ian,
            "c_opt_analytic": c_opt,
            "c_ian_simulated": sim_ian,
            "c_ian_stderr": se_ian,
            "c_opt_simulated": sim_opt,
            "c_opt_stderr": se_opt,
            "ratio_analytic": c_ian / c_opt,
            "ratio_simulated": sim_ian / sim_opt,
        })
    return rows
