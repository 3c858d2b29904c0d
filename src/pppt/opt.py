"""Rate statistics and spatial throughput under joint decoding.

The receiver jointly decodes every interferer closer than its own
transmitter (there are n of them, Poisson with mean mu = lam*pi*d^2) and
treats the rest as noise.  Conditioned on n, the nearest noise interferer
lies beyond d, so the SIR law is the interference-as-noise one truncated to
sir > 1; the joint-decode constraint is shared symmetrically, giving
R = log2(1 + (1+n)*sir) / (1+n) on the support x > log2(2+n)/(1+n).
Unconditional quantities are Poisson mixtures over n, truncated by the
series policy in :mod:`pppt.numerics`.  The cognitive throughput takes the
whole mixture inside one integral, so its quadrature tolerance bounds the
error of the mixture mean rate E[R], not of each E[R | n];
:func:`conditional_mean_rate` keeps the per-term integral.
"""
from __future__ import annotations

import math

import numpy as np

from .ian import _pdf_rate_above_edge
from .model import DecodingRule, NetworkConfig, ThroughputValue
from .numerics import (
    _LN2,
    QuadratureSpec,
    SeriesTruncation,
    _log2_1p_pow,
    _log_sir_at_rate,
    _scalar_or_array,
    integrate,
    truncated_poisson_weights,
)

__all__ = [
    "cognitive_throughput",
    "conditional_mean_rate",
    "conditional_support_edge",
    "lower_bound",
    "pdf_rate",
    "pdf_rate_conditional",
    "pdf_sir",
    "truncated_sir_mean",
    "upper_bound",
]


def pdf_sir(cfg: NetworkConfig, x):
    """Density of the highest decodable SIR given joint decoding, on x > 1.

    Same push-forward as the interference-as-noise law but conditioned on
    the nearest noise interferer being farther than d, hence exactly zero
    at and below 1.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = x > 1.0
    if np.any(m):
        xm = x[m]
        e = 2.0 / cfg.alpha
        out[m] = (2.0 * cfg.mu / cfg.alpha) * xm ** (e - 1.0) * np.exp(-cfg.mu * (xm**e - 1.0))
    return _scalar_or_array(out)


def conditional_support_edge(n: int) -> float:
    """Smallest rate with positive density when 1+n messages are decoded."""
    return math.log2(2.0 + n) / (1.0 + n)


def pdf_rate_conditional(cfg: NetworkConfig, n: int, x):
    """Rate density given that 1+n messages are jointly decoded.

    Zero at and below log2(2+n)/(1+n); above it, the push-forward of the
    truncated SIR density through (1+n)*R = log2(1 + (1+n)*sir).
    """
    if n < 0:
        raise ValueError(f"joint-decode count must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = x > conditional_support_edge(n)
    if np.any(m):
        out[m] = _pdf_rate_above_edge(cfg, 1.0 + n, x[m], 1.0)
    return _scalar_or_array(out)


def pdf_rate(cfg: NetworkConfig, x, truncation: SeriesTruncation | None = None):
    """Unconditional rate density: Poisson mixture of the conditional ones.

    All conditional densities are evaluated at once as a (terms x points)
    array and contracted with the Poisson weights.
    """
    w = truncated_poisson_weights(cfg.mu, truncation)
    x = np.asarray(x, dtype=float)
    edges = np.array([conditional_support_edge(i) for i in range(len(w))])
    k, xs = np.broadcast_arrays((1.0 + np.arange(len(w)))[:, None], x.reshape(1, -1))
    m = xs > edges[:, None]
    dens = np.zeros(m.shape)
    dens[m] = _pdf_rate_above_edge(cfg, k[m], xs[m], 1.0)
    return _scalar_or_array((w @ dens).reshape(x.shape))


def conditional_mean_rate(cfg: NetworkConfig, n: int,
                          spec: QuadratureSpec | None = None) -> float:
    """Expected rate given 1+n jointly decoded messages, bits/s/Hz.

    Computed from the shifted-exponential form of the truncated SIR law:
    with t = mu*(sir^(2/alpha) - 1) ~ Exp(1),
    E[R | n] = (1+n)^-1 * E[ log2(1 + (1+n) * ((t+mu)/mu)^(alpha/2)) ].
    """
    if n < 0:
        raise ValueError(f"joint-decode count must be >= 0, got {n}")
    mu, half_alpha, k = cfg.mu, cfg.alpha / 2.0, 1.0 + n

    def integrand(t):
        return _log2_1p_pow(k, np.log1p(t / mu), half_alpha) * np.exp(-t)

    return integrate(integrand, spec) / k


def cognitive_throughput(cfg: NetworkConfig, spec: QuadratureSpec | None = None,
                         truncation: SeriesTruncation | None = None) -> ThroughputValue:
    """Density times expected maximum rate under joint decoding.

    The Poisson mixture is summed inside one integral over the shared
    shifted-exponential variable t of :func:`conditional_mean_rate`:
    E[R] = int e^-t * sum_i (w_i/k_i) * log2(1 + k_i*(1 + t/mu)^(alpha/2)) dt
    with k_i = 1+i, so the quadrature tolerance applies to E[R] itself.
    Each level of the rule is one (nodes x terms) array; weights below
    1e-17 of the largest cannot move E[R] and are left out.
    """
    w = truncated_poisson_weights(cfg.mu, truncation)
    i = np.flatnonzero(w >= 1e-17 * w.max())
    k, coef = 1.0 + i, w[i] / (1.0 + i)
    mu, half_alpha = cfg.mu, cfg.alpha / 2.0

    def integrand(t):
        return _log2_1p_pow(k, np.log1p(t / mu)[:, None], half_alpha) @ coef * np.exp(-t)

    return ThroughputValue(
        value=cfg.lam * integrate(integrand, spec),
        method="cognitive",
        rule=DecodingRule.OPT,
        kind="quadrature",
    )


def lower_bound(cfg: NetworkConfig, y,
                truncation: SeriesTruncation | None = None) -> ThroughputValue:
    """Markov-type lower bound with a per-joint-count rate schedule.

    ``y`` is a constant or a callable i -> y_i; every scheduled rate must
    exceed the conditional support edge log2(2+i)/(1+i).  Each term is the
    Poisson weight times y_i times the conditional survival probability at
    y_i.
    """
    schedule = y if callable(y) else (lambda i, _y=float(y): _y)
    w = truncated_poisson_weights(cfg.mu, truncation)
    e = 2.0 / cfg.alpha
    total = 0.0
    for i, wi in enumerate(w):
        yi = float(schedule(i))
        if not yi > conditional_support_edge(i):
            raise ValueError(
                f"scheduled rate {yi} at joint count {i} is not above the "
                f"support edge {conditional_support_edge(i)}"
            )
        # past e*log b = 700 the survival underflows to 0
        log_b = _log_sir_at_rate(yi, 1.0 + i)
        if e * log_b < 700.0:
            total += wi * yi * math.exp(-cfg.mu * math.expm1(e * log_b))
    return ThroughputValue(
        value=cfg.lam * total,
        method="cognitive",
        rule=DecodingRule.OPT,
        kind="lower_bound",
    )


def truncated_sir_mean(cfg: NetworkConfig, spec: QuadratureSpec | None = None) -> float:
    """Mean of the >1-truncated SIR law.

    The shifted-exponential integral int (1 + t/mu)^(alpha/2) e^-t dt, equal
    to e^mu * mu^(-alpha/2) * Gamma(1 + alpha/2, mu) and tending to 1 as mu
    grows.  The integrand is taken in log space, since the power alone
    overflows at small mu and steep path loss (mu = 1e-9, alpha = 60).
    """
    mu, half_alpha = cfg.mu, cfg.alpha / 2.0
    return integrate(lambda t: np.exp(half_alpha * np.log1p(t / mu) - t), spec)


def upper_bound(cfg: NetworkConfig, spec: QuadratureSpec | None = None,
                truncation: SeriesTruncation | None = None) -> ThroughputValue:
    """Jensen upper bound: per-joint-count log of the mean truncated SIR."""
    w = truncated_poisson_weights(cfg.mu, truncation)
    mean_sir = truncated_sir_mean(cfg, spec)
    i = np.arange(len(w))
    value = cfg.lam * float(np.sum(w / (1.0 + i) * np.log1p((1.0 + i) * mean_sir) / _LN2))
    return ThroughputValue(
        value=value,
        method="cognitive",
        rule=DecodingRule.OPT,
        kind="upper_bound",
    )
