"""Non-cognitive baseline: predetermined coding rates optimized on average.

Transmitters cannot see their realization, so they pick one SIR threshold
per joint-decode count (a single one under interference-as-noise), code at
the matching rate, and accept outages.  A rate y earns y * P[R >= y], so
the throughput is the Markov bound of :mod:`pppt.ian` at the optimal rates,
one body with the lower bounds (k = 1, edge 0 under interference-as-noise;
k = 1+n, edge 1 under joint decoding).  Each term is concave in the
threshold; its stationary point is found by bracketed root finding on the
derivative of the log objective, never by iterating the fixed-point form
(whose naive iteration collapses to the useless zero threshold).
``highest_throughput`` solves the threshold of each count and returns them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ian, opt
from .ian import _markov_bound, _mixture, _rate
from .model import DecodingRule, NetworkConfig, ThroughputValue
from .numerics import SeriesTruncation, find_root

__all__ = [
    "FixedRateSolution",
    "compare_cognitive_vs_fixed",
    "highest_throughput",
]

# supremum sits on the open boundary sir -> 1+ when no interior stationary
# point exists; returned threshold is nudged inside the support
_BOUNDARY_SIR = 1.0 + 1e-9


@dataclass(frozen=True, eq=False)
class FixedRateSolution:
    """Optimal predetermined rates for one decoding rule.

    ``sir_thresholds[i]`` and ``rates[i]`` belong to joint-decode count i
    (a single entry, i = 0, under interference-as-noise).  ``at_boundary``
    flags counts whose objective has no interior maximum and was clamped to
    the support boundary.
    """

    rule: DecodingRule
    sir_thresholds: np.ndarray
    rates: np.ndarray
    throughput: ThroughputValue
    at_boundary: np.ndarray

    def __post_init__(self):
        for arr in (self.sir_thresholds, self.rates, self.at_boundary):
            arr.setflags(write=False)


def _objective_slope(cfg: NetworkConfig, k, b):
    # derivative of log(rate * success probability) in the threshold,
    # rescaled by the positive factor b^(1 - 2/alpha) * (1+k*b) * ln(1+k*b)
    # so the root is bracketable without poles:
    #   g(b) = (2*mu/(k*alpha)) * (1+k*b) * ln(1+k*b) - b^((alpha-2)/alpha)
    # g < 0 where the objective rises, g > 0 where it falls.  Elementwise
    # in (k, b).
    return ((2.0 * cfg.mu / (k * cfg.alpha)) * (1.0 + k * b) * np.log1p(k * b)
            - b ** ((cfg.alpha - 2.0) / cfg.alpha))


def _thresholds(cfg: NetworkConfig, k: np.ndarray, edge: float):
    """Optimal thresholds and boundary flags for the decode shares ``k`` on
    sir > edge (0 or 1): the sign change of the rescaled slope, bracketed
    below from 1e-9 down at edge 0 or by the edge sir = 1 (a slope already
    >= 0 there flags the boundary), and above by doubling from 2 (out of
    the domain up to inf, where the slope is nan and find_root raises),
    then solved share by share.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if not edge:
            lo = 1e-9
            while np.any(_objective_slope(cfg, k, lo) >= 0.0) and lo > 1e-300:
                lo *= 1e-2
            boundary = np.zeros(k.shape, dtype=bool)
        else:
            lo = edge
            boundary = _objective_slope(cfg, k, lo) >= 0.0
        b = np.full(k.shape, _BOUNDARY_SIR)
        interior = np.flatnonzero(~boundary)
        hi = np.full(interior.shape, 2.0)
        while np.any(rising := _objective_slope(cfg, k[interior], hi) < 0.0):
            hi[rising] *= 2.0
        for j, hi_j in zip(interior, hi):
            b[j] = find_root(lambda x: _objective_slope(cfg, k[j], x), (lo, hi_j))
    return b, boundary


def highest_throughput(cfg: NetworkConfig, rule: DecodingRule,
                       truncation: SeriesTruncation | None = None) -> FixedRateSolution:
    """Fixed-rate solution with the optimized thresholds and its throughput.

    Its value is the rule's Markov bound at each count's own optimal rate,
    Poisson-weighted under joint decoding; the weights follow the series
    truncation policy.  ``rule`` is a :class:`DecodingRule` or its value.
    """
    rule = DecodingRule(rule)
    k, w, edge = _mixture(cfg, rule, truncation)
    thresholds, boundary = _thresholds(cfg, k, edge)
    log_b = np.log(thresholds)
    return FixedRateSolution(rule=rule, sir_thresholds=thresholds, rates=_rate(k, log_b),
                             throughput=_markov_bound(cfg, k, w, edge, log_b),
                             at_boundary=boundary)


def compare_cognitive_vs_fixed(cfg: NetworkConfig) -> dict:
    """All four throughputs and the cognitive-minus-fixed gaps at one config.

    The gaps are nonnegative up to quadrature noise; a violation beyond
    -1e-9 indicates an internal inconsistency and raises.
    """
    c_ian = ian.cognitive_throughput(cfg).value
    c_opt = opt.cognitive_throughput(cfg).value
    t_ian = highest_throughput(cfg, DecodingRule.IAN).throughput.value
    t_opt = highest_throughput(cfg, DecodingRule.OPT).throughput.value
    report = {
        "c_ian": c_ian,
        "t_ian": t_ian,
        "c_opt": c_opt,
        "t_opt": t_opt,
        "gap_ian": c_ian - t_ian,
        "gap_opt": c_opt - t_opt,
    }
    for key in ("gap_ian", "gap_opt"):
        if report[key] < -1e-9:
            raise ArithmeticError(f"{key} = {report[key]} violates the cognitive >= fixed ordering")
    return report
