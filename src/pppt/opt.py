"""Rate statistics and spatial throughput under joint decoding.

The receiver jointly decodes every interferer closer than its own
transmitter (there are n of them, Poisson with mean mu = lam*pi*d^2) and
treats the rest as noise.  Conditioned on n, the nearest noise interferer
lies beyond d, so the SIR law is the interference-as-noise one truncated to
sir > 1; the joint-decode constraint is shared symmetrically among k = 1+n
messages, giving R = log2(1 + k*sir) / k on the support x > log2(1+k)/k.
The noise rule is this family's one-term member (k = 1, SIR edge 0); both
rules share the private helpers of :mod:`pppt.ian`, called here with edge 1.
Unconditional quantities are Poisson mixtures over n, truncated by the
series policy in :mod:`pppt.numerics`.  The cognitive throughput takes the
whole mixture inside one integral, so its quadrature tolerance bounds the
error of the mixture mean rate E[R], not of each E[R | n];
:func:`conditional_mean_rate` keeps the per-term integral.
"""
from __future__ import annotations

import math

import numpy as np

from .ian import (_log_sir_at_rate, _pdf_rate, _pdf_sir, _rate, _rate_edge, _rate_integrand,
                  _rate_times_success)
from .model import NetworkConfig, ThroughputValue
from .numerics import (QuadratureSpec, SeriesTruncation, _scalar_or_array, integrate,
                       truncated_poisson_weights)

__all__ = [
    "cognitive_throughput",
    "conditional_mean_rate",
    "conditional_support_edge",
    "log_truncated_sir_mean",
    "lower_bound",
    "pdf_rate",
    "pdf_rate_conditional",
    "pdf_sir",
    "upper_bound",
]


def pdf_sir(cfg: NetworkConfig, x):
    """Density of the highest decodable SIR given joint decoding, on x > 1.

    Same push-forward as the interference-as-noise law but conditioned on
    the nearest noise interferer being farther than d, hence exactly zero
    at and below 1.
    """
    return _pdf_sir(cfg, x, 1.0)


def _check_count(n) -> None:
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise ValueError(f"joint-decode count must be an integer >= 0, got {n!r}")


def conditional_support_edge(n: int) -> float:
    """Smallest rate with positive density when 1+n messages are decoded."""
    _check_count(n)
    return float(_rate_edge(1.0 + n, 1.0))


def pdf_rate_conditional(cfg: NetworkConfig, n: int, x):
    """Rate density given that 1+n messages are jointly decoded.

    Zero at and below log2(2+n)/(1+n); above it, the push-forward of the
    truncated SIR density through (1+n)*R = log2(1 + (1+n)*sir).
    """
    _check_count(n)
    return _scalar_or_array(_pdf_rate(cfg, 1.0 + n, x, 1.0))


def pdf_rate(cfg: NetworkConfig, x):
    """Unconditional rate density: Poisson mixture of the conditional ones.

    The conditional densities are evaluated as (terms x points) blocks of
    about 2^16 cells and contracted with the Poisson weights, so every point
    sums all of its terms and the memory stays bounded at any mu.
    """
    w = truncated_poisson_weights(cfg.mu)
    k = (1.0 + np.arange(len(w)))[:, None]
    x = np.asarray(x, dtype=float)
    blocks = max(1, math.ceil(x.size * len(w) / 2**16))
    dens = [w @ _pdf_rate(cfg, k, b, 1.0) for b in np.array_split(x.reshape(1, -1), blocks, axis=1)]
    return _scalar_or_array(np.concatenate(dens).reshape(x.shape))


def conditional_mean_rate(cfg: NetworkConfig, n: int) -> float:
    """Expected rate given 1+n jointly decoded messages, bits/s/Hz.

    Computed from the shifted-exponential form of the truncated SIR law:
    with u = mu*(sir^(2/alpha) - 1) ~ Exp(1),
    E[R | n] = (1+n)^-1 * E[ log2(1 + (1+n) * (1 + u/mu)^(alpha/2)) ].
    """
    _check_count(n)
    f, _ = _rate_integrand(cfg.mu, cfg.alpha / 2.0, 1.0, 1.0 + n, 1.0)
    return integrate(f)


def cognitive_throughput(cfg: NetworkConfig, spec: QuadratureSpec | None = None,
                         truncation: SeriesTruncation | None = None) -> ThroughputValue:
    """Density times expected maximum rate under joint decoding.

    The Poisson mixture is summed inside one integral over the shared
    shifted-exponential variable u = mu*(sir^(2/alpha) - 1) of
    :func:`conditional_mean_rate`:
    E[R] = int e^-u * sum_i (w_i/k_i) * log2(1 + k_i*(1 + u/mu)^(alpha/2)) du
    with k_i = 1+i, so the quadrature tolerance applies to E[R] itself.
    The quadrature runs in x = u/s with the noise rule's scale
    s = mu clipped to [1, alpha/2].  Each level of the rule is one
    (nodes x terms) array; weights below 1e-17 of the largest cannot move
    E[R] and are left out.
    """
    w = truncated_poisson_weights(cfg.mu, truncation)
    i = np.flatnonzero(w >= 1e-17 * w.max())
    f, _ = _rate_integrand(cfg.mu, cfg.alpha / 2.0, 1.0, 1.0 + i, w[i])
    return ThroughputValue(cfg.lam * integrate(f, spec))


def lower_bound(cfg: NetworkConfig, y,
                truncation: SeriesTruncation | None = None) -> ThroughputValue:
    """Markov-type lower bound with a per-joint-count rate schedule.

    ``y`` is a constant or a callable i -> y_i; every scheduled rate must
    exceed the conditional support edge log2(2+i)/(1+i).  Each term is the
    Poisson weight times y_i times the conditional survival probability at
    y_i.
    """
    w = truncated_poisson_weights(cfg.mu, truncation)
    k = 1.0 + np.arange(len(w))
    ys = np.array([float(y(i)) for i in range(len(w))]) if callable(y) else np.full(len(w), float(y))
    below = np.flatnonzero(~(ys > _rate_edge(k, 1.0)))
    if below.size:
        i = below[0]
        raise ValueError(
            f"scheduled rate {ys[i]} at joint count {i} is not above the "
            f"support edge {conditional_support_edge(i)}"
        )
    return ThroughputValue(float(w @ _rate_times_success(cfg, k, _log_sir_at_rate(ys, k), 1.0)))


def log_truncated_sir_mean(cfg: NetworkConfig, spec: QuadratureSpec | None = None) -> float:
    """Log of the mean of the >1-truncated SIR law.

    The mean is the shifted-exponential integral int (1 + t/mu)^(alpha/2)
    e^-t dt, equal to e^mu * mu^(-alpha/2) * Gamma(1 + alpha/2, mu) and
    tending to 1 as mu grows.  The integrand is taken in log space and
    divided by its maximum, at t0 = max(alpha/2 - mu, 0), whose log is added
    back, so a mean past the double range still has a finite log (1187.6 at
    mu = 3e-10*pi, alpha = 100).
    """
    mu, half_alpha = cfg.mu, cfg.alpha / 2.0
    t0 = max(half_alpha - mu, 0.0)
    log_peak = half_alpha * math.log1p(t0 / mu) - t0
    shifted = integrate(lambda t: np.exp(half_alpha * np.log1p(t / mu) - t - log_peak), spec)
    return log_peak + math.log(shifted)


def upper_bound(cfg: NetworkConfig, spec: QuadratureSpec | None = None,
                truncation: SeriesTruncation | None = None) -> ThroughputValue:
    """Jensen upper bound: per-joint-count rate at the mean truncated SIR."""
    w = truncated_poisson_weights(cfg.mu, truncation)
    k = 1.0 + np.arange(len(w))
    return ThroughputValue(cfg.lam * float(w @ _rate(k, log_truncated_sir_mean(cfg, spec))))
