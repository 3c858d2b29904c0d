"""Rate statistics and spatial throughput under joint decoding.

The receiver jointly decodes every interferer closer than its own
transmitter (there are n of them, Poisson with mean mu = lam*pi*d^2) and
treats the rest as noise.  Conditioned on n, the nearest noise interferer
lies beyond d, so the SIR law is the interference-as-noise one truncated to
sir > 1; the joint-decode constraint is shared symmetrically among k = 1+n
messages, giving R = log2(1 + k*sir) / k on the support x > log2(1+k)/k.
Each function here is a one-line face over a closed form of :mod:`pppt.ian`
that serves both rules: ``ian._mixture`` gives this rule's shares k = 1+n,
Poisson weights truncated by the series policy of :mod:`pppt.numerics`, and
SIR edge 1 (the noise rule is its one-term member k = 1, edge 0), and
:func:`_given` the law given n, its one-term member k = 1+n.  The two sums
smooth in n, E[R] and the Jensen bound, read ``ian._smooth_mixture``, a
32-node Gauss rule in n above mu = 50; the rate density skips terms of
weight 0.  The cognitive throughput takes the whole mixture inside one
integral, so its quadrature tolerance bounds the error of E[R], not of each
E[R | n]; :func:`conditional_mean_rate` keeps the per-term integral.
"""
from __future__ import annotations

import numpy as np

from .ian import (_lower_bound, _mean_rate, _mixture, _pdf_rate, _pdf_sir, _rate_edge,
                  _smooth_mixture, _upper_bound)
from .model import DecodingRule, NetworkConfig, ThroughputValue
from .numerics import QuadratureSpec, SeriesTruncation

__all__ = [
    "cognitive_throughput",
    "conditional_mean_rate",
    "conditional_support_edge",
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


def _given(n):
    """The law given n decoded interferers, the one-term mixture (k = 1+n,
    w = 1, SIR edge 1), for a count checked to be an integer >= 0."""
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise ValueError(f"joint-decode count must be an integer >= 0, got {n!r}")
    return np.array([1.0 + n]), np.ones(1), 1.0


def conditional_support_edge(n: int) -> float:
    """Smallest rate with positive density when 1+n messages are decoded."""
    (k,), _, edge = _given(n)
    return float(_rate_edge(k, edge))


def pdf_rate_conditional(cfg: NetworkConfig, n: int, x):
    """Rate density given that 1+n messages are jointly decoded.

    Zero at and below log2(2+n)/(1+n); above it, the push-forward of the
    truncated SIR density through (1+n)*R = log2(1 + (1+n)*sir).
    """
    return _pdf_rate(cfg, *_given(n), x)


def pdf_rate(cfg: NetworkConfig, x):
    """Unconditional rate density: Poisson mixture of the conditional ones.

    The conditional densities of the K terms of nonzero weight are evaluated
    in (K x points) blocks of under 2^16 + K cells and contracted with the
    weights, so every point sums all its terms and memory is bounded at any mu.
    """
    return _pdf_rate(cfg, *_mixture(cfg, DecodingRule.OPT), x)


def conditional_mean_rate(cfg: NetworkConfig, n: int) -> float:
    """Expected rate given 1+n jointly decoded messages, bits/s/Hz.

    Computed from the shifted-exponential form of the truncated SIR law:
    with u = mu*(sir^(2/alpha) - 1) ~ Exp(1),
    E[R | n] = (1+n)^-1 * E[ log2(1 + (1+n) * (1 + u/mu)^(alpha/2)) ].
    """
    return _mean_rate(cfg, *_given(n))


def cognitive_throughput(cfg: NetworkConfig, spec: QuadratureSpec | None = None,
                         truncation: SeriesTruncation | None = None) -> ThroughputValue:
    """Density times expected maximum rate under joint decoding.

    The Poisson mixture is summed inside one integral over the shared
    shifted-exponential variable u = mu*(sir^(2/alpha) - 1) of
    :func:`conditional_mean_rate`:
    E[R] = int e^-u * sum_i (w_i/k_i) * log2(1 + k_i*(1 + u/mu)^(alpha/2)) du,
    so the quadrature tolerance applies to E[R] itself.  The sum runs over
    the series k_i = 1+i, stopped by ``truncation``, at mu <= 50, else over
    the 32 Gauss nodes k_j = 1+n_j of Poisson(mu), as cheap at any mu; weights
    below 1e-17 of the largest are left out.  The quadrature runs in
    x = u/s with the noise rule's scale s = mu clipped to [1, alpha/2].
    """
    return ThroughputValue(cfg.lam * _mean_rate(cfg, *_smooth_mixture(cfg, truncation), spec))


def lower_bound(cfg: NetworkConfig, y,
                truncation: SeriesTruncation | None = None) -> ThroughputValue:
    """Markov-type lower bound with a per-joint-count rate schedule.

    ``y`` is a constant or a callable i -> y_i; every scheduled rate must
    exceed the conditional support edge log2(2+i)/(1+i).  Each term is the
    Poisson weight times y_i times the conditional survival probability at
    y_i.
    """
    return _lower_bound(cfg, *_mixture(cfg, DecodingRule.OPT, truncation), y)


def upper_bound(cfg: NetworkConfig, spec: QuadratureSpec | None = None,
                truncation: SeriesTruncation | None = None) -> ThroughputValue:
    """Jensen upper bound: per-joint-count rate at the mean truncated SIR,
    summed as :func:`cognitive_throughput` sums its mixture."""
    return _upper_bound(cfg, *_smooth_mixture(cfg, truncation), spec)
