"""Quadrature, root finding, scalar maximization, and Poisson-series helpers.

Thin wrappers with hard numerical contracts.  Adaptive Gauss-Kronrod
quadrature and Brent's bracketed root finder come from scipy; semi-infinite
ranges are mapped onto [0, 1) with u = (x - a) / (1 + x - a) and split at
u = 1/2 before the adaptive rule is applied.  The unimodal maximizer is a
plain golden-section search.  All functions here are pure and safe to call
from any thread.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special
from scipy.integrate import quad as _quad

__all__ = [
    "BracketError",
    "QuadratureError",
    "QuadratureSpec",
    "SeriesTruncation",
    "find_root",
    "integrate",
    "maximize_unimodal",
    "truncated_poisson_weights",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Shared by the analytic and simulation modules; private, so kept out of
# __all__.
_LN2 = math.log(2.0)
_LOG_LN4 = math.log(math.log(4.0))


def _log2_1p_scaled_pow(k: float, y: float, p: float) -> float:
    """log2(1 + k * y**p) without overflow for huge y**p."""
    if y <= 0.0:
        return 0.0
    t = p * math.log2(y) + math.log2(k)
    if t > 64.0:
        return t
    return math.log1p(k * y**p) / _LN2


def _log_sir_at_rate(y: float, k: float) -> float:
    """log b for the SIR b with log2(1 + k * b) / k = y: the inverse of the
    rate law with k messages, finite where b = expm1(k * y * ln2) / k
    overflows (k * y * ln2 > 709)."""
    x = k * y * _LN2
    return x + math.log(-math.expm1(-x)) - math.log(k)


def _scalar_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


class QuadratureError(ArithmeticError):
    """Adaptive quadrature did not converge.

    Carries the best available estimate and its error bound so callers can
    decide whether the partial answer is usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


class BracketError(ValueError):
    """The supplied bracket does not enclose a sign change."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for adaptive quadrature.

    The default ``abs_tol`` sits below any integral the package computes, so
    ``rel_tol`` binds even for the tiny mean rates of steep path loss at
    high density.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-300
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class SeriesTruncation:
    """Stopping policy for Poisson-weighted series.

    Summation stops once the accumulated probability mass reaches
    1 - mass_tol, and never runs past the hard cap.  The default cap,
    mean + 12*sqrt(mean) + 20, keeps the neglected mass far below mass_tol
    for any mean of practical size.
    """

    mass_tol: float = 1e-10
    hard_cap: int | None = None

    def __post_init__(self):
        if not 0.0 < self.mass_tol < 1.0:
            raise ValueError("mass_tol must be in (0, 1)")
        if self.hard_cap is not None and self.hard_cap < 0:
            raise ValueError("hard_cap must be >= 0")

    def cap_for(self, mean: float) -> int:
        if self.hard_cap is not None:
            return self.hard_cap
        return int(math.ceil(mean + 12.0 * math.sqrt(mean) + 20.0))


DEFAULT_QUADRATURE = QuadratureSpec()
DEFAULT_TRUNCATION = SeriesTruncation()


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None) -> float:
    """Integral of ``f`` over (a, b), where ``b`` may be +inf.

    The estimated error is kept below max(abs_tol, rel_tol * |I|).  The
    integrand may have an integrable endpoint singularity.  Semi-infinite
    ranges are transformed with u = (x - a) / (1 + x - a), which keeps
    exponentially decaying integrands smooth on the unit interval, and the
    unit interval is split at u = 1/2 (x = a + 1).  The split keeps QUADPACK
    from accepting the whole range on one 21-point panel, whose error
    estimate can be optimistic: for the joint-rule mixture at mu = 4.75,
    alpha = 4 it claimed 1.6e-9 with an actual error of 3.5e-7.

    Raises QuadratureError when convergence fails within the subdivision
    budget; the exception carries the best estimate and its error bound.
    """
    spec = spec or DEFAULT_QUADRATURE
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")

    if math.isinf(b):
        a0 = a

        def g(u):
            if u >= 1.0:
                return 0.0
            w = 1.0 - u
            return f(a0 + u / w) / (w * w)

        lo, hi, points = 0.0, 1.0, [0.5]
    else:
        g, lo, hi, points = f, a, b, None

    out = _quad(g, lo, hi, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                limit=spec.max_subdivisions, points=points, full_output=1)
    value, err = out[0], out[1]
    if len(out) > 3:
        raise QuadratureError(str(out[3]).replace("\n", " ").strip(), value, err)
    if not math.isfinite(value):
        raise QuadratureError("non-finite quadrature result", value, err)
    return value


def find_root(h, bracket, tol: float) -> float:
    """Root of ``h`` inside a sign-changing bracket [lo, hi].

    Brent's method (bisection fallback guarantees convergence); the result
    is located to within ``tol`` in the argument.
    """
    lo, hi = bracket
    flo, fhi = h(lo), h(hi)
    if flo == 0.0:
        return float(lo)
    if fhi == 0.0:
        return float(hi)
    if flo * fhi > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: h={flo!r}, {fhi!r}")
    return float(optimize.brentq(h, lo, hi, xtol=tol))


def maximize_unimodal(g, bracket, tol: float):
    """Golden-section maximization of a unimodal function.

    Returns (argmax, max); the argmax is within ``tol`` of the true one
    provided ``g`` is quasi-concave on the bracket.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    gc, gd = g(c), g(d)
    while hi - lo > tol:
        if gc >= gd:
            hi, d, gd = d, c, gc
            c = hi - _INVPHI * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + _INVPHI * (hi - lo)
            gd = g(d)
    x = 0.5 * (lo + hi)
    return x, g(x)


def truncated_poisson_weights(mean: float, truncation: SeriesTruncation | None = None) -> np.ndarray:
    """Poisson pmf values for i = 0..K, truncated by the stopping policy.

    K is the smallest index at which the accumulated mass reaches
    1 - mass_tol, capped by ``truncation.cap_for(mean)``.
    """
    truncation = truncation or DEFAULT_TRUNCATION
    if mean < 0:
        raise ValueError("mean must be >= 0")
    if mean == 0.0:
        return np.array([1.0])
    cap = truncation.cap_for(mean)
    i = np.arange(cap + 1)
    w = np.exp(i * math.log(mean) - mean - special.gammaln(i + 1))
    csum = np.cumsum(w)
    hit = np.nonzero(csum >= 1.0 - truncation.mass_tol)[0]
    k = int(hit[0]) if hit.size else cap
    return w[: k + 1]
