"""Monte Carlo estimation of spatial throughput on sampled realizations.

Estimators measure the typical link exactly as the analysis does: one
receiver at the origin, full aggregate interference from every transmitter
on the plane, no mutual-achievability coupling between links, and each
jointly decoded interferer counted at the link's own power, a lower bound
on the symmetric joint-decoding rate.  Every per-link statistic (aggregate
interference, nearest distance, decode-set powers) depends on the
interferer positions only through their distances to the origin, so the
window kernel samples squared radii directly — one uniform per point — and
never materializes planar coordinates.  It is the only sampler in the
package, and every rate comes from it through the rate law of :mod:`pppt.ian`.

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
from the PCG64 stream :func:`_rng` keys by (s, 0); the squared radii,
realization after realization and one call per chunk, come from (s, 1)
for the disc, uniform on [0, 1), and from (s, 2) for the ring, uniform on
[1, W^2/d^2).  One reduction serves both fields: power sums and minima
per realization by ``reduceat`` over that realization's points.  Results
are therefore independent of chunk sizes and reproducible across runs,
and realization ``i`` is the same in every run of at least ``i + 1``
realizations.  Sample moments are reduced with numpy's pairwise
summation, which is deterministic for a fixed realization count.

A pass is a read-only table of per-rule views, the sampler's twin of
:func:`pppt.ian._mixture`: a rule's decode count, noise power sum and
squared nearest noise distance per realization.  An estimator checks its
rule and interference mode before anything is drawn, then reads its rule's
view: mode ``full`` counts every interferer, ``closest`` only the nearest
noise interferer, the closed forms' approximation.  The last pass, about
40 bytes per realization (five float arrays), is kept for the next
estimate at the same draw (configuration, realization count, seed,
window), so every estimate at one density comes from one pass.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import ian as _ian_analytic
from . import opt as _opt_analytic
from .fixed_rate import FixedRateSolution
from .ian import _rate
from .model import DecodingRule, NetworkConfig, _check_throughput

__all__ = [
    "SimulationEstimate",
    "default_window_radius",
    "estimate_cognitive",
    "estimate_fixed_rate",
    "tightness_report",
]

_INTERFERENCE_MODES = ("full", "closest")

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


def _field_stats(counts: np.ndarray, radii: np.random.Generator, lo: float, width: float,
                 half_alpha: float):
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
        # as many realizations as fit in _CHUNK_POINTS, and at least one
        stop = max(start + 1, int(np.searchsorted(ends, base + _CHUNK_POINTS, "right")))
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


class _View(NamedTuple):
    """One decoding rule's reading of a pass, per realization, in units of d."""

    n: np.ndarray         # decode count
    noise: np.ndarray     # noise power sum, in d^-alpha
    r2_noise: np.ndarray  # squared nearest noise distance in d^2 (inf if none)


def _views(n_dec: np.ndarray, disc, ring) -> MappingProxyType:
    """Each rule's view of a pass, the twin of ``ian._mixture``, from its two
    fields of (power sum, squared nearest distance) per realization: the
    decode disc r < d with ``n_dec`` points, which the joint rule decodes and
    the noise rule does not, and the ring with the plane beyond the window."""
    (s_dec, r2_dec), (s_far, r2_far) = disc, ring
    s_all, r2_all = s_dec + s_far, np.minimum(r2_dec, r2_far)
    for arr in (n_dec, s_all, r2_all, s_far, r2_far):
        arr.setflags(write=False)
    return MappingProxyType({
        DecodingRule.IAN: _View(np.broadcast_to(0.0, n_dec.shape), s_all, r2_all),
        DecodingRule.OPT: _View(n_dec, s_far, r2_far),
    })


def _rng(seed: int, stream: int) -> np.random.Generator:
    """PCG64 generator of the run seeded ``seed``: stream 0 draws its counts,
    1 its decode-disc radii and 2 its noise-ring radii.  SeedSequence wants
    non-negative entropy, so any integer seed is folded into the 64-bit range."""
    return np.random.default_rng((int(seed) % 2**64, stream))


def _collect_stats(cfg: NetworkConfig, window_radius: float, seed: int, n_realizations: int):
    """The per-rule views of ``n_realizations`` realizations in units of d
    (the link's power is 1); ``window_radius`` is in metres."""
    window = window_radius / cfg.d
    ring = window * window - 1.0  # the ring's width in squared radius
    if not math.isfinite(ring):
        raise ArithmeticError(f"the window's (W/d)^2 overflows a double at mu = {cfg.mu:g}")
    # the Campbell mean of the plane beyond the window
    far_mean = 2.0 * cfg.mu * window ** (2.0 - cfg.alpha) / (cfg.alpha - 2.0)
    half_alpha = cfg.alpha / 2.0
    counts = _rng(seed, 0).poisson([cfg.mu, cfg.mu * ring], (n_realizations, 2))
    disc = _field_stats(counts[:, 0], _rng(seed, 1), 0.0, 1.0, half_alpha)
    s_far, r2_far_min = _field_stats(counts[:, 1], _rng(seed, 2), 1.0, ring, half_alpha)
    return _views(counts[:, 0].astype(float), disc, (s_far + far_mean, r2_far_min))


def _rates_from_stats(cfg: NetworkConfig, view: _View, mode: str) -> np.ndarray:
    """The cognitive rate law, log2(1 + share * SIR) / share per realization
    of one rule's view.

    share = 1 + n for n jointly decoded interferers, each at the link's own
    power as in the paper; the decode set holds the interferers strictly
    closer than the link distance (ties go to the noise set).  As the
    analytic chains do, ``closest`` (any mode but ``full``) replaces
    the noise-set interference by its nearest interferer's power.  No noise
    interference gives rate inf, a noise power past the double range 0.
    """
    with np.errstate(divide="ignore"):
        log_noise = (np.log(view.noise) if mode == "full"
                     else -cfg.alpha / 2.0 * np.log(view.r2_noise))
    return _rate(1.0 + view.n, -log_noise)


@functools.lru_cache(maxsize=1)
def _sample(cfg: NetworkConfig, n_realizations: int, seed: int,
            window_radius: float | None) -> MappingProxyType:
    """One validated pass of the window kernel, shared by every estimator.

    The window, the disc drawn exactly, is the default one or a given
    finite radius above d (a smaller one would put part of the decode set
    in the far mean).  The key is the draw itself: the rule and mode only
    pick and read a view, so the last pass serves any estimate at its draw.
    """
    if n_realizations < _MIN_REALIZATIONS:
        raise ValueError(f"need at least {_MIN_REALIZATIONS} realizations for a usable "
                         f"standard error, got {n_realizations}")
    if window_radius is None:
        window_radius = default_window_radius(cfg)
    elif not (math.isfinite(window_radius) and window_radius > cfg.d):
        raise ValueError(f"window_radius must be finite and > d = {cfg.d}, got {window_radius}")
    return _collect_stats(cfg, window_radius, seed, n_realizations)


def _rule_view(cfg: NetworkConfig, rule: DecodingRule, mode: str, n_realizations: int,
               seed: int, window_radius: float | None) -> _View:
    """``rule``'s view of the pass at this draw, the rule (a
    :class:`DecodingRule` or its value) and mode checked before the draw."""
    rule = DecodingRule(rule)
    if mode not in _INTERFERENCE_MODES:
        raise ValueError(f"interference mode must be one of {_INTERFERENCE_MODES}, got {mode!r}")
    return _sample(cfg, n_realizations, seed, window_radius)[rule]


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
    view = _rule_view(cfg, rule, mode, n_realizations, seed, window_radius)
    return _estimate(cfg, _rates_from_stats(cfg, view, mode))


def estimate_fixed_rate(cfg: NetworkConfig, solution: FixedRateSolution,
                        n_realizations: int = 10_000, seed: int = 0, mode: str = "full",
                        window_radius: float | None = None) -> SimulationEstimate:
    """Simulated fixed-rate spatial throughput of ``solution`` under its rule.

    A realization succeeds when the predetermined rate for its realized
    joint-decode count is achievable there; the estimate is lam times the
    sample mean of rate * success; counts beyond the solution's table
    (vanishing Poisson tail) count as outages.
    """
    view = _rule_view(cfg, solution.rule, mode, n_realizations, seed, window_radius)
    # a count past the table meets the rate 0 appended to it, an outage
    # also where the rate is inf
    counts = np.minimum(view.n.astype(np.intp), len(solution.rates))
    target = np.append(solution.rates, 0.0)[counts]
    contrib = np.where(_rates_from_stats(cfg, view, mode) >= target, target, 0.0)
    return _estimate(cfg, contrib)


def tightness_report(cfgs, n_realizations: int = 10_000, seed: int = 0,
                     window_radius: float | None = None) -> list[dict]:
    """Analytic vs full-interference simulated throughput, per configuration.

    One sampling pass per configuration feeds every decoding rule, so the
    simulated columns see identical realizations.  They are
    :func:`estimate_cognitive`'s values at the same draw.
    """
    rows = []
    for cfg in cfgs:
        views = _sample(cfg, n_realizations, seed, window_radius)
        sim = {}
        for rule in DecodingRule:
            est = _estimate(cfg, _rates_from_stats(cfg, views[rule], "full"))
            sim |= {f"c_{rule.value}_simulated": est.mean, f"c_{rule.value}_stderr": est.stderr}
        c_ian = _ian_analytic.cognitive_throughput(cfg).value
        c_opt = _opt_analytic.cognitive_throughput(cfg).value
        rows.append({"lam": cfg.lam, "c_ian_analytic": c_ian, "c_opt_analytic": c_opt, **sim,
                     "ratio_analytic": c_ian / c_opt,
                     "ratio_simulated": sim["c_ian_simulated"] / sim["c_opt_simulated"]})
    return rows
