"""Rate statistics and spatial throughput when interference is noise.

Under the closest-interferer approximation the whole chain is driven by one
random variable: the distance r1 from the typical receiver to its nearest
interferer, Rayleigh-distributed with scale set by the density.  The highest
decodable SIR is (r1/d)^alpha and the highest achievable rate follows by
R = log2(1 + SIR).

The noise rule is the k = 1, edge 0 member of the joint rule's family
(k = 1+n messages at log2(1 + k*sir)/k, SIR law on sir > edge = 1; see
:mod:`pppt.opt`).  The private helpers below take k and the edge and serve
:mod:`pppt.opt` and :mod:`pppt.fixed_rate` too.

All expectations are evaluated after the substitution
u = mu * (sir^(2/alpha) - edge) (mu = lam*pi*d^2), which is Exp(1) and
turns every integrand into a smooth function times exp(-u) on [0, inf) —
no endpoint singularities survive, so the exp-sinh quadrature converges in
a few levels.
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


def _pdf_sir(cfg: NetworkConfig, x, edge: float):
    """SIR density on sir > edge (0 under the noise rule, 1 under the joint
    rule): (2*mu/alpha) * x^(2/alpha - 1) * exp(-mu * (x^(2/alpha) - edge)),
    zero at and below the edge."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = x > edge
    xm, e = x[m], 2.0 / cfg.alpha
    out[m] = (2.0 * cfg.mu / cfg.alpha) * xm ** (e - 1.0) * np.exp(-cfg.mu * (xm**e - edge))
    return _scalar_or_array(out)


def _rate_edge(k, edge: float):
    """Smallest rate with positive density, log2(1 + k*edge)/k."""
    return np.log2(1.0 + k * edge) / k


def _pdf_rate(cfg: NetworkConfig, k, x, edge: float):
    """Rate density with k messages sharing the rate log2(1 + k*sir)/k, for
    the SIR law on sir > edge; zero at and below :func:`_rate_edge`.

    Broadcast over (k, x); evaluated in log space so that the SIR matching
    a large rate may overflow to inf and still give a density of 0.
    """
    k, x = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(x, dtype=float))
    out = np.zeros(x.shape)
    m = x > _rate_edge(k, edge)
    km, e = k[m], 2.0 / cfg.alpha
    t = km * x[m] * _LN2
    with np.errstate(over="ignore"):
        b = np.expm1(t) / km  # the SIR matching the rate
        out[m] = np.exp(_LOG_LN4 + math.log(cfg.mu / cfg.alpha) + t + (e - 1.0) * np.log(b)
                        - cfg.mu * (b**e - edge))
    return out


def _rate_integrand(mu: float, half_alpha: float, edge: float, k, coef):
    """(f, s): sum_i coef_i * E[log2(1 + k_i*sir)] = int f(x) dx over
    (0, inf) for the SIR law on sir > edge (0 or 1).

    With u = mu*(sir^(2/alpha) - edge), which is Exp(1), and u = s*x,
    f(x) = s * e^-u * sum_i coef_i * log2(1 + k_i*(edge + u/mu)^(alpha/2)).
    Under the noise rule the rate bends from a power of u into a logarithm
    at u = mu (SIR = 1), and u^(alpha/2) e^-u peaks at u = alpha/2; s = mu
    clipped to [1, alpha/2] puts whichever carries the mass near x = 1,
    where the exp-sinh nodes are densest (s = 1 doubles the nodes at
    alpha = 60).
    """
    s = min(max(mu, 1.0), half_alpha)
    k, coef = np.atleast_1d(k, coef)

    def f(x):
        u = s * x
        # log(edge + u/mu); log1p keeps its digits near sir = 1
        log_y = np.log1p(u / mu) if edge else np.log(u / mu)
        return s * (_log2_1p_pow(k, log_y[:, None], half_alpha) @ coef) * np.exp(-u)

    return f, s


def _rate_times_success(cfg: NetworkConfig, k, log_b, edge: float):
    """lam * log2(1 + k*b)/k * exp(-mu * (b^(2/alpha) - edge)), elementwise
    in (k, log b), edge 0 or 1: the Markov lower bound at the rate
    y = log2(1 + k*b)/k and the fixed-rate objective at the threshold b.

    Taken from log b, so a b or k*b past the double range still gives a
    finite value; past (2/alpha)*log b = 700 the success probability
    underflows and the value is 0.
    """
    k, log_b = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(log_b, dtype=float))
    z = (2.0 / cfg.alpha) * log_b
    out = np.zeros(z.shape)
    m = z < 700.0
    km, zm = k[m], z[m]
    excess = np.expm1(zm) if edge else np.exp(zm)  # b^(2/alpha) - edge
    with np.errstate(over="ignore"):
        out[m] = cfg.lam * _log2_1p_pow(km, log_b[m], 1.0) / km * np.exp(-cfg.mu * excess)
    return out


def pdf_sir(cfg: NetworkConfig, x):
    """Density of the highest decodable SIR, supported on x > 0.

    (2*mu/alpha) * x^(2/alpha - 1) * exp(-mu * x^(2/alpha)), the push-forward
    of the nearest-distance law through sir = (r1/d)^alpha.
    """
    return _pdf_sir(cfg, x, 0.0)


def pdf_rate(cfg: NetworkConfig, x):
    """Density of the highest achievable rate in bits/s/Hz, supported on x > 0.

    Push-forward of the SIR density through R = log2(1 + sir); behaves like
    x^(2/alpha - 1) near zero (integrable for alpha > 2) and decays
    double-exponentially in x.
    """
    return _scalar_or_array(_pdf_rate(cfg, 1.0, x, 0.0))


def mean_rate(cfg: NetworkConfig, spec: QuadratureSpec | None = None) -> float:
    """Expected highest achievable rate of the typical link, bits/s/Hz."""
    return integrate(_rate_integrand(cfg.mu, cfg.alpha / 2.0, 0.0, 1.0, 1.0)[0], spec)


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
    value = float(_rate_times_success(cfg, 1.0, _log_sir_at_rate(y, 1.0), 0.0))
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


def _stationarity_residual(mu: float, alpha: float) -> float:
    # d(lam * E[R])/dlam = 0 is equivalent, after the u-substitution, to
    #   int u^(..) log2(1+x(u)) e^-u du  =  int (u-1) * same  du;
    # both sides are evaluated with the same quadrature and subtracted.
    f, s = _rate_integrand(mu, alpha / 2.0, 0.0, 1.0, 1.0)
    return integrate(f) - integrate(lambda x: (s * x - 1.0) * f(x))


def optimal_density(d: float, alpha: float):
    """Density maximizing the cognitive throughput, with the value there.

    The first-order condition depends on mu = lam*pi*d^2 and alpha only, so
    it is solved in mu, once for every d: bracketed root finding over
    mu in pi*[1e-6, 1e3], after locating its sign change on a 61-point log
    grid, then lam* = mu*/(pi*d^2).  Raises ValueError for an invalid d or
    alpha, or a d at which lam* is not a positive double; BracketError
    when the grid shows no sign change and ArithmeticError when it shows
    several.

    Returns (lam_star, ThroughputValue).
    """
    NetworkConfig(1.0, d, alpha)  # checks d and alpha before any quadrature
    grid = math.pi * np.geomspace(1e-6, 1e3, 61)
    res = np.array([_stationarity_residual(mu, alpha) for mu in grid])
    sign_flips = np.nonzero(np.sign(res[:-1]) * np.sign(res[1:]) < 0)[0]
    if sign_flips.size == 0:
        raise BracketError("stationarity residual has no sign change on the density bracket")
    if sign_flips.size > 1:
        raise ArithmeticError(
            f"stationarity residual changes sign {sign_flips.size} times on the density bracket"
        )
    i = sign_flips[0]
    mu_star = find_root(lambda mu: _stationarity_residual(mu, alpha),
                        (grid[i], grid[i + 1]), tol=1e-12)
    cfg = NetworkConfig(mu_star / (math.pi * d) / d, d, alpha)
    return cfg.lam, cognitive_throughput(cfg)
