"""Quadrature, root finding, scalar maximization, and Poisson-series helpers.

Every integral the package needs runs over (0, inf), so one rule serves
them all: the exp-sinh double-exponential rule of Takahasi & Mori (Publ.
RIMS 9, 1974), with the integrand evaluated on a numpy array of nodes per
level.  The root finder is Brent's method over arrays of brackets, so many
roots are found in one pass; the unimodal maximizer is a plain
golden-section search.  Only numpy and the standard library are used.
All functions here are pure and safe to call from any thread.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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

# exp-sinh rule: trapezoid nodes t = j*h on [_T_MIN, _T_MAX], first h = _H0
_T_MIN, _T_MAX, _H0 = -4.5, 3.7, 0.5
_EPS = float(np.finfo(float).eps)
_MAX_ROOT_STEPS = 100  # Brent's method runs out of these only on a non-finite function

# Shared by the analytic and simulation modules; private, so kept out of
# __all__.
_LN2 = math.log(2.0)
_LOG_LN4 = math.log(math.log(4.0))


def _log2_1p_pow(k, log_y, p):
    """log2(1 + k * y**p) from log y, elementwise, overflow-free."""
    return np.logaddexp(0.0, np.log(k) + p * log_y) / _LN2


def _log_sir_at_rate(y, k):
    """log b for the SIR b with log2(1 + k * b) / k = y: the inverse of the
    rate law with k messages, elementwise, finite where
    b = expm1(k * y * ln2) / k overflows (k * y * ln2 > 709)."""
    with np.errstate(over="ignore"):  # k * y past the double range is inf, b too
        x = k * y * _LN2
    return x + np.log(-np.expm1(-x)) - np.log(k)


def _scalar_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


class QuadratureError(ArithmeticError):
    """Quadrature did not converge within its node budget.

    Carries the best available estimate and its error bound (the difference
    between the last two levels) so callers can decide whether the partial
    answer is usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


class BracketError(ValueError):
    """The supplied bracket does not enclose a sign change."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and node budget for the exp-sinh quadrature.

    The default ``abs_tol`` sits below any integral the package computes, so
    ``rel_tol`` binds even for the tiny mean rates of steep path loss at
    high density.  ``max_subdivisions`` caps the trapezoid nodes of the
    finest level: the default 5000 allows h down to 1/256 (4199 nodes).
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-300
    max_subdivisions: int = 5000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class SeriesTruncation:
    """Stopping policy for Poisson-weighted series.

    Summation stops once the accumulated probability mass reaches
    1 - mass_tol, and never runs past the cap mean + 12*sqrt(mean) + 20,
    which keeps the neglected mass far below mass_tol for any mean of
    practical size.
    """

    mass_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.mass_tol < 1.0:
            raise ValueError("mass_tol must be in (0, 1)")

    def cap_for(self, mean: float) -> int:
        return int(math.ceil(mean + 12.0 * math.sqrt(mean) + 20.0))


DEFAULT_QUADRATURE = QuadratureSpec()
DEFAULT_TRUNCATION = SeriesTruncation()


@functools.cache
def _exp_sinh_level(level: int):
    """Nodes x = exp(pi/2 * sinh t) and weights h * dx/dt that ``level`` adds
    to the trapezoid rule in t: every t = j*h on [_T_MIN, _T_MAX] with
    h = _H0 / 2^level, and only odd j past level 0."""
    h = _H0 / 2**level
    j = np.arange(math.ceil(_T_MIN / h), math.floor(_T_MAX / h) + 1)
    if level:
        j = j[j % 2 == 1]
    t = j * h
    x = np.exp(0.5 * math.pi * np.sinh(t))
    w = h * 0.5 * math.pi * np.cosh(t) * x
    for a in (x, w):
        a.setflags(write=False)
    return x, w


def integrate(f, spec: QuadratureSpec | None = None) -> float:
    """Integral of ``f`` over (0, inf) by the exp-sinh rule.

    ``f`` maps a numpy array of nodes to the integrand there, once per
    level.  With x = exp(pi/2 * sinh t) the trapezoid rule in t converges
    double-exponentially, an integrable power singularity at 0 included;
    t in [-4.5, 3.7] spans x in (2e-31, 6e13), beyond which x^-1/2 at 0 or
    e^-x at infinity leave below 1e-15.  h halves from 1/2 until two levels
    agree within max(abs_tol, rel_tol * |I|).  A zero integral needs a
    positive ``abs_tol`` above the rounding noise of the sum: the default
    1e-300 is below it, so the rule never converges there.  Raises
    QuadratureError, carrying the last estimate and level difference, when
    the next level would exceed ``spec.max_subdivisions`` nodes or the sum
    is not finite.
    """
    spec = spec or DEFAULT_QUADRATURE
    total, diff, nodes, level = math.nan, math.inf, 0, 0
    while True:
        x, w = _exp_sinh_level(level)
        nodes += len(x)
        if nodes > spec.max_subdivisions:
            raise QuadratureError(f"no convergence within {spec.max_subdivisions} nodes",
                                  total, diff)
        part = float(w @ f(x))
        prev, total = total, 0.5 * total + part if level else part
        diff = abs(total - prev) if level else math.inf
        if not math.isfinite(total):
            raise QuadratureError("non-finite quadrature result", total, diff)
        if diff <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total
        level += 1


def find_root(h, bracket, tol: float):
    """Roots of ``h`` inside sign-changing brackets [lo, hi], elementwise.

    ``lo`` and ``hi`` are scalars or arrays of one shape that ``h`` maps
    elementwise, so many roots are found in one pass.  Brent's method
    (Algorithms for Minimization without Derivatives, 1973, ch. 4) runs on
    every bracket at once; a root is returned once its bracket is narrower
    than tol + 4*eps*|root|.
    """
    def f(x):
        return np.asarray(h(x[()]), dtype=float)

    pre, cur = (np.array(v, dtype=float) for v in np.broadcast_arrays(*bracket))
    fpre, fcur = f(pre), f(cur)
    bad = ~(fpre * fcur <= 0.0)
    if bad.any():
        raise BracketError(f"no sign change on [{pre[bad][0]}, {cur[bad][0]}]: "
                           f"h={fpre[bad][0]!r}, {fcur[bad][0]!r}")
    at_lo = fpre == 0.0
    cur, fcur = np.where(at_lo, pre, cur), np.where(at_lo, 0.0, fcur)
    # cur is the best point so far, blk the other end of its bracket, pre
    # the previous point; scur and spre are the last two steps
    blk, fblk, spre, scur = (np.zeros_like(cur) for _ in range(4))
    # the interpolation step is formed on every bracket, used or not
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_ROOT_STEPS):
            crossed = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
            blk, fblk = np.where(crossed, pre, blk), np.where(crossed, fpre, fblk)
            spre, scur = np.where(crossed, cur - pre, spre), np.where(crossed, cur - pre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            pre, cur, blk = np.where(swap, cur, pre), np.where(swap, blk, cur), np.where(swap, cur, blk)
            fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))
            delta = (tol + 4.0 * _EPS * np.abs(cur)) / 2.0
            sbis = (blk - cur) / 2.0
            done = (fcur == 0.0) | (np.abs(sbis) < delta)
            if done.all():
                return float(cur) if cur.ndim == 0 else cur
            dpre = (fpre - fcur) / (pre - cur)
            dblk = (fblk - fcur) / (blk - cur)
            stry = np.where(pre == blk, -fcur * (cur - pre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
            interpolate = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                           & (2.0 * np.abs(stry) < np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta)))
            spre, scur = np.where(interpolate, scur, sbis), np.where(interpolate, stry, sbis)
            pre, fpre = cur, fcur
            step = np.where(np.abs(scur) > delta, scur, np.where(sbis > 0.0, delta, -delta))
            cur = np.where(done, cur, cur + step)
            fcur = f(cur)
    raise ArithmeticError(f"root finding did not converge in {_MAX_ROOT_STEPS} steps")


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
    1 - mass_tol, capped by ``truncation.cap_for(mean)``.  The log pmf is
    taken at m = floor(mean) in Loader's saddle-point form, which keeps its
    digits where m*log(mean) and lgamma(m+1) are large and cancel, and
    carried outward by the ratios mean/i, whose partial sums stay small
    where the weights matter.
    """
    truncation = truncation or DEFAULT_TRUNCATION
    if mean < 0:
        raise ValueError("mean must be >= 0")
    if mean == 0.0:
        return np.array([1.0])
    cap = truncation.cap_for(mean)
    m = int(mean)
    if m < 30:
        log_pm = m * math.log(mean) - mean - math.lgamma(m + 1.0)
    else:  # Stirling series for lgamma(m+1) - (m+1/2)log m + m - log(2 pi)/2
        stirlerr = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * m * m)) / (m * m)) / m
        bd0 = m * math.log1p((m - mean) / mean) + mean - m  # m*log(m/mean) + mean - m
        log_pm = -bd0 - 0.5 * math.log(2.0 * math.pi * m) - stirlerr
    log_step = math.log(mean) - np.log(np.arange(1.0, cap + 1))  # log(w_i / w_(i-1))
    log_w = np.full(cap + 1, log_pm)
    log_w[m + 1:] += np.cumsum(log_step[m:])
    log_w[:m] -= np.cumsum(log_step[:m][::-1])[::-1]
    w = np.exp(log_w)
    csum = np.cumsum(w)
    hit = np.nonzero(csum >= 1.0 - truncation.mass_tol)[0]
    k = int(hit[0]) if hit.size else cap
    return w[: k + 1]
