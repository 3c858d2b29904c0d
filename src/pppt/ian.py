"""Rate statistics and spatial throughput when interference is noise.

Under the closest-interferer approximation the whole chain is driven by one
random variable: the distance r1 from the typical receiver to its nearest
interferer, Rayleigh-distributed with scale set by the density.  The highest
decodable SIR is (r1/d)^alpha and the highest achievable rate follows by
R = log2(1 + SIR).

The noise rule is the k = 1, edge 0 member of the joint rule's family
(k = 1+n messages at log2(1 + k*sir)/k, SIR law on sir > edge = 1; see
:mod:`pppt.opt`).  ``_mixture`` alone decides a rule's shares k, weights
w and SIR edge; the mean rate, both bounds and the rate density each have
one private body over (k, w, edge), which :mod:`pppt.opt` and
:mod:`pppt.fixed_rate` call too.  The SIR law and the rate law are each
written once, in log sir, with their inverses, and the rate law serves
:mod:`pppt.simulation` as well.

All expectations are evaluated after the substitution
u = mu * (sir^(2/alpha) - edge) (mu = lam*pi*d^2), which is Exp(1) and
turns every integrand into a smooth function times exp(-u) on [0, inf) —
no endpoint singularities survive, so the exp-sinh quadrature converges in
a few levels.
"""
from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .model import DecodingRule, NetworkConfig, ThroughputValue
from .numerics import (BracketError, QuadratureSpec, SeriesTruncation, _poisson_gauss,
                       _scalar_or_array, find_root, integrate, truncated_poisson_weights)

__all__ = [
    "asymptote",
    "cognitive_throughput",
    "lower_bound",
    "optimal_density",
    "pdf_nearest_distance",
    "pdf_rate",
    "pdf_sir",
    "upper_bound",
]

_LN2 = math.log(2.0)
_GAUSS_MIN_MU = 50.0  # above it the Gauss rule of Poisson(mu) is no slower than the series


def _rate(k, log_b):
    """The rate law, log2(1 + k*b)/k for k messages at SIR b, from log b:
    elementwise, finite where b or k*b overflows."""
    return np.logaddexp(0.0, np.log(k) + log_b) / _LN2 / k


def _log_sir_at_rate(y, k):
    """log b for the SIR b with rate y, the inverse of :func:`_rate`:
    elementwise, finite where b = expm1(k*y*ln2)/k overflows
    (k*y*ln2 > 709)."""
    with np.errstate(over="ignore"):  # k * y past the double range is inf, b too
        x = k * y * _LN2
    return x + np.log(-np.expm1(-x)) - np.log(k)


def _log_sir_ccdf(cfg: NetworkConfig, log_b, edge: float):
    """The SIR law on sir > edge (0 or 1) from log b, elementwise: log P[sir > b] =
    -mu * (b^(2/alpha) - edge) = -mu * expm1(z) or -mu * e^z at z = (2/alpha)*log b, within
    2.1e-16 of 50 digits at alpha = 4, both edges, mu from 1e-300 to 1e6.  Only where e^z
    overflows (z >= 709) is it -exp(log mu + z), 3e-15 off at mu = 2.3e-308; taken
    everywhere that is up to 5.7e-14 off (mu = 1e-244).  -inf where it overflows too."""
    z = (2.0 / cfg.alpha) * log_b
    with np.errstate(over="ignore"):
        return np.where(z < 709.0, -cfg.mu * (np.expm1(z) if edge else np.exp(z)),
                        -np.exp(math.log(cfg.mu) + z))


def _log_sir_at_u(mu: float, half_alpha: float, u, edge: float):
    """The inverse of :func:`_log_sir_ccdf` at u = -log P[sir > b]:
    log b = (alpha/2) * log(edge + u/mu) from log u - log mu, elementwise, at
    every mu (u/mu may pass the double range) and both edges (logaddexp(-inf,
    y) is y exactly); u = 0 gives 0 at edge 1 and -inf at edge 0, quietly."""
    with np.errstate(divide="ignore"):
        return half_alpha * np.logaddexp(np.log(edge), np.log(u) - math.log(mu))


@functools.lru_cache(maxsize=2)
def _mixture(cfg: NetworkConfig, rule: DecodingRule, truncation: SeriesTruncation | None = None):
    """(k, w, edge), the one place the rules differ: k = 1 on sir > 0 (noise
    rule); k = 1+n, series-truncated Poisson(mu) weights, sir > 1 (joint
    rule).  The last two are kept, read-only, for the next closed forms."""
    w = np.ones(1) if rule is DecodingRule.IAN else truncated_poisson_weights(cfg.mu, truncation)
    k = 1.0 + np.arange(len(w))
    k.flags.writeable = w.flags.writeable = False
    return k, w, 0.0 if rule is DecodingRule.IAN else 1.0


def _smooth_mixture(cfg: NetworkConfig, truncation: SeriesTruncation | None = None):
    """:func:`_mixture` of the joint rule for a summand smooth in the count
    at mu <= 50; above it, the 32-node Gauss rule of Poisson(mu)."""
    if cfg.mu <= _GAUSS_MIN_MU:
        return _mixture(cfg, DecodingRule.OPT, truncation)
    n, w = _poisson_gauss(cfg.mu)
    return 1.0 + n, w, 1.0


def _log_mean_sir(cfg: NetworkConfig, edge: float, spec: QuadratureSpec | None = None) -> float:
    """log E[sir] on sir > edge: log(Gamma(1 + alpha/2) * mu^(-alpha/2)) at
    edge 0; at edge 1 the log of int (1 + t/mu)^(alpha/2) e^-t dt
    = e^mu * mu^(-alpha/2) * Gamma(1 + alpha/2, mu), its integrand divided
    by its peak at t0 = max(alpha/2 - mu, 0) in log space, so a mean past
    the double range has a finite log (1187.6 at mu = 3e-10*pi, alpha = 100).
    """
    mu, half_alpha = cfg.mu, cfg.alpha / 2.0
    if not edge:
        return math.lgamma(1.0 + half_alpha) - half_alpha * math.log(mu)
    t0 = max(half_alpha - mu, 0.0)
    log_peak = _log_sir_at_u(mu, half_alpha, t0, 1.0) - t0
    shifted = integrate(lambda t: np.exp(_log_sir_at_u(mu, half_alpha, t, 1.0) - t - log_peak),
                        spec)
    return log_peak + math.log(shifted)


def pdf_nearest_distance(cfg: NetworkConfig, x):
    """Density of the distance to the nearest interferer: 2*lam*pi*x*exp(-lam*pi*x^2),
    taken in log space; 0 where lam*pi*x^2 overflows, x = inf included."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        log_survival = np.where(x > 0, -cfg.lam * (math.pi * x * x), -np.inf)
    out = np.zeros(x.shape)
    m = log_survival > -np.inf
    out[m] = np.exp(math.log(2.0 * math.pi) + math.log(cfg.lam) + np.log(x[m]) + log_survival[m])
    return _scalar_or_array(out)


def _sir_density(cfg: NetworkConfig, log_b, edge: float, log_jacobian):
    """The SIR density on sir > edge (0 or 1) at b times |db/dx|, for a
    variable x with sir = b(x), from log b and log |db/dx|, elementwise:
    (2*mu/alpha) * b^(2/alpha - 1) * P[sir > b] * |db/dx|.

    The only spelling of the SIR density, exponentiated once: 0 where
    P[sir > b] is 0, which covers a b past the double range, and an
    ArithmeticError where the value is past the double range.
    """
    log_b, log_jacobian = np.broadcast_arrays(log_b, log_jacobian)
    log_success = _log_sir_ccdf(cfg, log_b, edge)
    out = np.zeros(log_b.shape)
    m = log_success > -np.inf
    with np.errstate(over="ignore"):
        out[m] = np.exp(math.log(2.0 * cfg.mu / cfg.alpha) + (2.0 / cfg.alpha - 1.0) * log_b[m]
                        + log_success[m] + log_jacobian[m])
    if np.isinf(out).any():
        raise ArithmeticError("density past the double range at sir = "
                              f"exp({log_b[np.isinf(out)][0]:.6g})")
    return out


def _pdf_sir(cfg: NetworkConfig, x, edge: float):
    """SIR density on sir > edge (0 under the noise rule, 1 under the joint
    rule), zero at and below the edge."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = x > edge
    out[m] = _sir_density(cfg, np.log(x[m]), edge, 0.0)
    return _scalar_or_array(out)


def _rate_edge(k, edge: float):
    """Smallest rate with positive density, the rate at sir = edge (0 or 1)."""
    return _rate(k, 0.0) if edge else 0.0


def _pdf_rate(cfg: NetworkConfig, k, w, edge: float, x):
    """Rate density sum_i w_i * p_i(x), p_i that of log2(1 + k_i*sir)/k_i
    on sir > edge, zero at and below :func:`_rate_edge`; from log sir, so a
    SIR past the double range gives 0.  The K terms of nonzero weight run in
    (K x points) blocks of under 2^16 + K cells: bounded memory at any mu."""
    x = np.asarray(x, dtype=float)
    i = np.flatnonzero(w)  # a weight of exactly 0 adds exactly 0
    k, w = k[i], w[i]
    dens = []
    blocks = max(1, min(x.size, math.ceil(x.size * len(w) / 2**16)))
    for xb in np.array_split(x.reshape(1, -1), blocks, axis=1):
        kb, xb = np.broadcast_arrays(k[:, None], xb)
        cells = np.zeros(xb.shape)
        m = xb > _rate_edge(kb, edge)
        km, xm = kb[m], xb[m]
        # db/dx = ln2 * 2^(k*x); a k*x past the double range is a b past it too
        with np.errstate(over="ignore"):
            log_jacobian = math.log(_LN2) + km * xm * _LN2
        cells[m] = _sir_density(cfg, _log_sir_at_rate(xm, km), edge, log_jacobian)
        dens.append(w @ cells)
    return _scalar_or_array(np.concatenate(dens).reshape(x.shape))


def _rate_integrand(mu: float, half_alpha: float, edge: float, k, coef):
    """(f, s): sum_i coef_i * E[log2(1 + k_i*sir)/k_i] = int f(x) dx over
    (0, inf) for the SIR law on sir > edge (0 or 1).

    With u = mu*(sir^(2/alpha) - edge), which is Exp(1), and u = s*x,
    f(x) = s * e^-u * sum_i coef_i * rate(k_i, sir = (edge + u/mu)^(alpha/2)).
    Under the noise rule the rate bends from a power of u into a logarithm
    at u = mu (SIR = 1), and u^(alpha/2) e^-u peaks at u = alpha/2; s = mu
    clipped to [1, alpha/2] puts whichever carries the mass near x = 1,
    where the exp-sinh nodes are densest (s = 1 doubles the nodes at
    alpha = 60).
    """
    s = min(max(mu, 1.0), half_alpha)

    def f(x):
        u = s * x
        return s * (_rate(k, _log_sir_at_u(mu, half_alpha, u, edge)[:, None]) @ coef) * np.exp(-u)

    return f, s


def _markov_bound(cfg: NetworkConfig, k, w, edge: float, log_b) -> ThroughputValue:
    """lam * sum_i w_i * log2(1 + k_i*b_i)/k_i * P[sir > b_i] from log b_i,
    edge 0 or 1: the Markov bound at the rates log2(1 + k_i*b_i)/k_i, and
    the fixed-rate throughput at the thresholds b_i.

    Taken from log b, so a b or k*b past the double range still gives a
    finite term; where mu * b^(2/alpha) overflows the success probability
    is 0 and so is the term.  lam multiplies last, so a success probability
    of 0 gives 0 also where lam * rate would overflow.
    """
    log_success = _log_sir_ccdf(cfg, log_b, edge)
    terms = np.zeros(log_b.shape)
    m = log_success > -np.inf
    with np.errstate(over="ignore"):
        terms[m] = _rate(k[m], log_b[m]) * np.exp(log_success[m]) * cfg.lam
    return ThroughputValue(float(w @ terms))


def _mean_rate(cfg: NetworkConfig, k, w, edge: float, spec: QuadratureSpec | None = None) -> float:
    """E[R] of the mixture (k, w, edge) as one integral, bits/s/Hz; weights
    below 1e-17 of the largest cannot move it and are left out."""
    i = np.flatnonzero(w >= 1e-17 * w.max())
    return integrate(_rate_integrand(cfg.mu, cfg.alpha / 2.0, edge, k[i], w[i])[0], spec)


def _lower_bound(cfg: NetworkConfig, k, w, edge: float, y) -> ThroughputValue:
    """Markov bound sum_i w_i * lam * y_i * P[R_i >= y_i] at the anchors
    y_i = y(i) of a callable or constant ``y``, each above its rate edge."""
    ys = np.array([float(y(i)) for i in range(len(w))]) if callable(y) else np.full(len(w), float(y))
    below = np.flatnonzero(~(ys > _rate_edge(k, edge)))
    if below.size:
        i = below[0]
        raise ValueError(f"rate anchor {ys[i]} must exceed the support edge "
                         f"{_rate_edge(k[i], edge)} of k = {k[i]:g}")
    return _markov_bound(cfg, k, w, edge, _log_sir_at_rate(ys, k))


def _upper_bound(cfg: NetworkConfig, k, w, edge: float, spec: QuadratureSpec | None = None):
    """Jensen bound lam * sum_i w_i * log2(1 + k_i*E[sir])/k_i."""
    return ThroughputValue(cfg.lam * float(w @ _rate(k, _log_mean_sir(cfg, edge, spec))))


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
    return _pdf_rate(cfg, *_mixture(cfg, DecodingRule.IAN), x)


def cognitive_throughput(cfg: NetworkConfig, spec: QuadratureSpec | None = None) -> ThroughputValue:
    """Density times expected per-realization maximum rate, bits/s/Hz/m^2."""
    return ThroughputValue(cfg.lam * _mean_rate(cfg, *_mixture(cfg, DecodingRule.IAN), spec))


def lower_bound(cfg: NetworkConfig, y: float) -> ThroughputValue:
    """Markov-inequality lower bound lam * y * P[R >= y], valid for any y > 0."""
    return _lower_bound(cfg, *_mixture(cfg, DecodingRule.IAN), y)


def upper_bound(cfg: NetworkConfig) -> ThroughputValue:
    """Jensen upper bound lam * log2(1 + E[sir]); E[sir] = Gamma(1+alpha/2) * mu^(-alpha/2)."""
    return _upper_bound(cfg, *_mixture(cfg, DecodingRule.IAN))


def asymptote(cfg: NetworkConfig) -> ThroughputValue:
    """High-density equivalent lam * E[sir] / ln2 = c * lam^(1 - alpha/2).

    The constant c = (pi*d^2)^(-alpha/2) * Gamma(1 + alpha/2) / ln2 makes the
    ratio asymptote/upper_bound tend to 1, matching log2(1+x) ~ x/ln2.  A
    value past the double range is inf, which ThroughputValue rejects.
    """
    with np.errstate(over="ignore"):
        value = float(np.exp(math.log(cfg.lam) + _log_mean_sir(cfg, 0.0))) / _LN2
    return ThroughputValue(value)


def _stationarity_residual(mu: float, alpha: float) -> float:
    # d(lam * E[R])/dlam = 0 is equivalent, after the u-substitution, to
    #   int u^(..) log2(1+x(u)) e^-u du  =  int (u-1) * same  du;
    # both sides are evaluated with the same quadrature and subtracted.
    f, s = _rate_integrand(mu, alpha / 2.0, 0.0, np.ones(1), np.ones(1))
    return integrate(f) - integrate(lambda x: (s * x - 1.0) * f(x))


def optimal_density(d: float, alpha: float):
    """Density maximizing the cognitive throughput, with the value there.

    The first-order condition depends on mu = lam*pi*d^2 and alpha only, so
    it is solved in mu, once for every d: bracketed root finding over
    mu in pi*[1e-6, 1e3], after locating its sign change on a 61-point log
    grid, then lam* = mu*/(pi*d^2).  Raises ValueError for an invalid d or
    alpha, or a d at which lam* or its throughput is not a normal positive
    double (a subnormal one has lost digits).  A grid that shows no sign
    change (BracketError) or several is a numerical failure of valid
    input, an ArithmeticError: the CLI exits 1 on it, not 2.

    Returns (lam_star, ThroughputValue).
    """
    # d and alpha before any quadrature; lam* = mu*/(pi*d^2) once mu* is known
    if not (math.isfinite(d) and d > 0):
        raise ValueError(f"link distance d must be finite and > 0, got {d}")
    NetworkConfig(1.0, 1.0, alpha)
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
                        (grid[i], grid[i + 1]))
    lam_star = mu_star / (math.pi * d) / d
    # a subnormal double keeps too few digits to carry lam* * d^2
    if sys.float_info.min <= lam_star < math.inf:
        cfg = NetworkConfig(lam_star, d, alpha)
        value = cfg.lam * _mean_rate(cfg, *_mixture(cfg, DecodingRule.IAN))
        if sys.float_info.min <= value < math.inf:
            return cfg.lam, ThroughputValue(value)
    raise ValueError(f"optimal density lam* = mu*/(pi*d^2) = {lam_star} or its throughput is "
                     f"not a normal positive double at d = {d}")
