"""Rate statistics and spatial throughput when interference is noise.

Under the closest-interferer approximation the whole chain is driven by one
random variable: the distance r1 from the typical receiver to its nearest
interferer, Rayleigh-distributed with scale set by the density.  The highest
decodable SIR is (r1/d)^alpha and the highest achievable rate follows by
R = log2(1 + SIR).

All expectations are evaluated after the substitution u = mu * sir^(2/alpha)
(mu = lam*pi*d^2), which turns every integrand into a smooth function times
exp(-u) on [0, inf) — no endpoint singularities survive, so the exp-sinh
quadrature converges in a few levels.
"""
from __future__ import annotations

import math

import numpy as np

from .model import DecodingRule, NetworkConfig, ThroughputValue
from .numerics import (
    _LN2,
    _LOG_LN4,
    BracketError,
    QuadratureSpec,
    _log2_1p_pow,
    _log_sir_at_rate,
    _scalar_or_array,
    find_root,
    integrate,
    maximize_unimodal,
)

__all__ = [
    "asymptote",
    "cognitive_throughput",
    "lower_bound",
    "mean_rate",
    "optimal_density",
    "pdf_nearest_distance",
    "pdf_rate",
    "pdf_sir",
    "upper_bound",
]

def pdf_nearest_distance(cfg: NetworkConfig, x):
    """Density of the distance to the nearest interferer: 2*lam*pi*x*exp(-lam*pi*x^2)."""
    x = np.asarray(x, dtype=float)
    lp = cfg.lam * math.pi
    out = np.where(x > 0, 2.0 * lp * x * np.exp(-lp * x * x), 0.0)
    return _scalar_or_array(out)


def pdf_sir(cfg: NetworkConfig, x):
    """Density of the highest decodable SIR, supported on x > 0.

    (2*mu/alpha) * x^(2/alpha - 1) * exp(-mu * x^(2/alpha)), the push-forward
    of the nearest-distance law through sir = (r1/d)^alpha.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = x > 0
    if np.any(m):
        xm = x[m]
        e = 2.0 / cfg.alpha
        out[m] = (2.0 * cfg.mu / cfg.alpha) * xm ** (e - 1.0) * np.exp(-cfg.mu * xm**e)
    return _scalar_or_array(out)


def _pdf_rate_above_edge(cfg: NetworkConfig, k, x, sir_edge: float = 0.0):
    """Rate density with k messages sharing the rate, at rates x above its
    support edge, for the SIR law truncated to sir > sir_edge (0 here, 1
    under joint decoding).

    Elementwise in (k, x); evaluated in log space so that the SIR matching
    a large rate may overflow to inf and still give a density of 0.
    """
    e = 2.0 / cfg.alpha
    t = k * x * _LN2
    with np.errstate(over="ignore"):
        b = np.expm1(t) / k  # the SIR matching rate x
        logpdf = (
            _LOG_LN4
            + math.log(cfg.mu / cfg.alpha)
            + t
            + (e - 1.0) * np.log(b)
            - cfg.mu * (b**e - sir_edge)
        )
        return np.exp(logpdf)


def pdf_rate(cfg: NetworkConfig, x):
    """Density of the highest achievable rate in bits/s/Hz, supported on x > 0.

    Push-forward of the SIR density through R = log2(1 + sir); behaves like
    x^(2/alpha - 1) near zero (integrable for alpha > 2) and decays
    double-exponentially in x.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = x > 0
    if np.any(m):
        out[m] = _pdf_rate_above_edge(cfg, 1.0, x[m])
    return _scalar_or_array(out)


def _rate_integrand(mu: float, half_alpha: float):
    """(f, s): E[R] = int f(x) dx over (0, inf), with u = s*x and
    f(x) = s * log2(1 + (u/mu)^(alpha/2)) * e^-u.

    The rate bends from a power of u into a logarithm at u = mu (SIR = 1),
    and u^(alpha/2) e^-u peaks at u = alpha/2; s = mu clipped to
    [1, alpha/2] puts whichever carries the mass near x = 1, where the
    exp-sinh nodes are densest (s = 1 doubles the nodes at alpha = 60).
    """
    s = min(max(mu, 1.0), half_alpha)

    def f(x):
        u = s * x
        return s * _log2_1p_pow(1.0, np.log(u / mu), half_alpha) * np.exp(-u)

    return f, s


def mean_rate(cfg: NetworkConfig, spec: QuadratureSpec | None = None) -> float:
    """Expected highest achievable rate of the typical link, bits/s/Hz."""
    return integrate(_rate_integrand(cfg.mu, cfg.alpha / 2.0)[0], spec)


def cognitive_throughput(cfg: NetworkConfig, spec: QuadratureSpec | None = None) -> ThroughputValue:
    """Density times expected per-realization maximum rate, bits/s/Hz/m^2."""
    return ThroughputValue(
        value=cfg.lam * mean_rate(cfg, spec),
        method="cognitive",
        rule=DecodingRule.IAN,
        kind="quadrature",
    )


def lower_bound(cfg: NetworkConfig, y: float) -> ThroughputValue:
    """Markov-inequality lower bound lam * y * P[R >= y], valid for any y > 0."""
    if not y > 0:
        raise ValueError(f"y must be > 0, got {y}")
    # s = 2**y - 1 overflows once y > 1024, so s**e is taken from log s;
    # past e*log s = 700 the survival underflows to 0
    e = 2.0 / cfg.alpha
    log_s = _log_sir_at_rate(y, 1.0)
    value = 0.0
    if e * log_s < 700.0:
        value = cfg.lam * y * math.exp(-cfg.mu * math.exp(e * log_s))
    return ThroughputValue(value=value, method="cognitive", rule=DecodingRule.IAN, kind="lower_bound")


def upper_bound(cfg: NetworkConfig) -> ThroughputValue:
    """Jensen upper bound lam * log2(1 + E[sir]); E[sir] = Gamma(1+alpha/2) * mu^(-alpha/2)."""
    half_alpha = cfg.alpha / 2.0
    log_mean_sir = math.lgamma(1.0 + half_alpha) - half_alpha * math.log(cfg.mu)
    value = cfg.lam * float(_log2_1p_pow(1.0, log_mean_sir, 1.0))
    return ThroughputValue(value=value, method="cognitive", rule=DecodingRule.IAN, kind="upper_bound")


def asymptote(cfg: NetworkConfig) -> ThroughputValue:
    """High-density equivalent c * lam^(1 - alpha/2).

    The constant c = (pi*d^2)^(-alpha/2) * Gamma(1 + alpha/2) / ln2 makes the
    ratio asymptote/upper_bound tend to 1, matching log2(1+x) ~ x/ln2.
    """
    half_alpha = cfg.alpha / 2.0
    log_c = math.lgamma(1.0 + half_alpha) - half_alpha * math.log(math.pi * cfg.d * cfg.d)
    return ThroughputValue(
        value=math.exp(log_c + (1.0 - half_alpha) * math.log(cfg.lam)) / _LN2,
        method="cognitive",
        rule=DecodingRule.IAN,
        kind="asymptote",
    )


def _stationarity_residual(lam: float, d: float, alpha: float,
                           spec: QuadratureSpec | None) -> float:
    # d(lam * E[R])/dlam = 0 is equivalent, after the u-substitution, to
    #   int u^(..) log2(1+x(u)) e^-u du  =  int (u-1) * same  du;
    # both sides are evaluated with the same quadrature and subtracted.
    f, s = _rate_integrand(lam * math.pi * d * d, alpha / 2.0)
    return integrate(f, spec) - integrate(lambda x: (s * x - 1.0) * f(x), spec)


def optimal_density(d: float, alpha: float, spec: QuadratureSpec | None = None):
    """Density maximizing the cognitive throughput, with the value there.

    Solves the first-order condition by bracketed root finding over
    lam in [1e-6, 1e3] / d^2; if numerical noise produces several sign
    changes, the root closest to a golden-section argmax is kept.

    Returns (lam_star, ThroughputValue).
    """
    if not d > 0:
        raise ValueError(f"d must be > 0, got {d}")
    if not alpha > 2:
        raise ValueError(f"alpha must be > 2, got {alpha}")

    lo, hi = 1e-6 / (d * d), 1e3 / (d * d)
    grid = np.geomspace(lo, hi, 61)
    res = np.array([_stationarity_residual(l, d, alpha, spec) for l in grid])
    sign_flips = np.nonzero(np.sign(res[:-1]) * np.sign(res[1:]) < 0)[0]
    if sign_flips.size == 0:
        raise BracketError("stationarity residual has no sign change on the density bracket")

    roots = [
        find_root(lambda l: _stationarity_residual(l, d, alpha, spec),
                  (grid[i], grid[i + 1]), tol=1e-12)
        for i in sign_flips
    ]
    if len(roots) == 1:
        lam_star = roots[0]
    else:
        # tie-break: golden-section argmax of the throughput itself
        t_star, _ = maximize_unimodal(
            lambda t: math.exp(t) * mean_rate(NetworkConfig(math.exp(t), d, alpha), spec),
            (math.log(lo), math.log(hi)),
            tol=1e-10,
        )
        lam_g = math.exp(t_star)
        lam_star = min(roots, key=lambda r: abs(math.log(r) - math.log(lam_g)))

    return lam_star, cognitive_throughput(NetworkConfig(lam_star, d, alpha), spec)
