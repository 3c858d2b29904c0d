"""Quadrature, root finding, and Poisson-series helpers.

Every integral the package needs runs over (0, inf), so one rule serves
them all: the exp-sinh double-exponential rule of Takahasi & Mori (Publ.
RIMS 9, 1974), with the integrand evaluated on a numpy array of nodes per
level.  The root finder is Brent's method on one scalar bracket, as
scipy's brentq runs it.  Only numpy and the standard library are used.
All functions here are pure and safe to call from any thread.
"""
from __future__ import annotations

import contextlib
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
    "truncated_poisson_weights",
]

# exp-sinh rule: trapezoid nodes t = j*h on [_T_MIN, _T_MAX], first h = _H0
_T_MIN, _T_MAX, _H0 = -4.5, 3.7, 0.5
_EPS = float(np.finfo(float).eps)
_MAX_ROOT_STEPS = 100  # brentq's default maxiter
_ROOT_XTOL = 1e-12


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


class BracketError(ArithmeticError):
    """The bracket does not enclose a sign change.  The package builds
    every bracket itself, so this is a numerical failure, not bad input."""


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
    1 - mass_tol, and never runs past the cap of
    :func:`truncated_poisson_weights`, which keeps the neglected mass far
    below mass_tol for any mean of practical size.
    """

    mass_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.mass_tol < 1.0:
            raise ValueError("mass_tol must be in (0, 1)")


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


def find_root(h, bracket) -> float:
    """Root of ``h`` in the bracket (lo, hi): Brent's method (Algorithms for
    Minimization without Derivatives, 1973, ch. 4) step for step as scipy's
    brentq at xtol = 1e-12, stopping where h is 0 or the bracket is below
    1e-12 + 4*eps*|root|.
    Raises BracketError when h is NaN or of one sign at the ends, and its
    base ArithmeticError when h turns NaN inside or the steps run out.
    """
    pre, cur = float(bracket[0]), float(bracket[1])
    fpre, fcur = float(h(pre)), float(h(cur))
    same_sign = fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) == (fcur < 0.0)
    if same_sign or math.isnan(fpre) or math.isnan(fcur):
        raise BracketError(f"no sign change on [{pre}, {cur}]: h={fpre!r}, {fcur!r}")
    if fpre == 0.0 or fcur == 0.0:
        return pre if fpre == 0.0 else cur
    # cur is the best point so far, blk the other end of its bracket, pre
    # the previous point; scur and spre are the last two steps
    blk = fblk = spre = scur = 0.0
    for _ in range(_MAX_ROOT_STEPS):
        if (fpre < 0.0) != (fcur < 0.0):
            blk, fblk = pre, fpre
            spre = scur = cur - pre
        if abs(fblk) < abs(fcur):
            pre, cur, blk = cur, blk, cur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_XTOL + 4.0 * _EPS * abs(cur)) / 2.0
        sbis = (blk - cur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return cur
        stry = math.inf  # bisect unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            with contextlib.suppress(ZeroDivisionError):  # an underflow bisects, as in brentq
                if pre == blk:  # secant
                    stry = -fcur * (cur - pre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (pre - cur)
                    dblk = (fblk - fcur) / (blk - cur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        pre, fpre = cur, fcur
        cur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(h(cur))
        if math.isnan(fcur):
            raise ArithmeticError(f"h({cur!r}) is NaN inside the bracket")
    raise ArithmeticError(f"root finding did not converge in {_MAX_ROOT_STEPS} steps")


def _series_cap(mean: float) -> int:
    return int(math.ceil(mean + 12.0 * math.sqrt(mean) + 20.0))


def truncated_poisson_weights(mean: float, truncation: SeriesTruncation | None = None) -> np.ndarray:
    """Poisson pmf values for i = 0..K, truncated by the stopping policy.

    K is the smallest index at which the accumulated mass reaches
    1 - mass_tol, capped at ceil(mean + 12*sqrt(mean) + 20).  The log pmf is
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
    cap = _series_cap(mean)
    m = int(mean)
    if m < 30:
        log_pm = m * math.log(mean) - mean - math.lgamma(m + 1.0)
    else:  # Stirling series for lgamma(m+1) - (m+1/2)log m + m - log(2 pi)/2
        stirlerr = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * m * m)) / (m * m)) / m
        # m*log(m/mean) + mean - m, mean - m taken first: it cancels the log term
        bd0 = m * math.log1p((m - mean) / mean) + (mean - m)
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


@functools.lru_cache(maxsize=2)
def _poisson_gauss(mean: float):
    """Nodes n_j and weights W_j, read-only, of the 32-node Gauss rule of
    Poisson(mean) (Golub & Welsch, Math. Comp. 23, 1969): the eigenvalues and
    squared first eigenvector components of the Charlier Jacobi matrix,
    diagonal n + mean and off-diagonal sqrt(n*mean), less mean for digits."""
    off = np.sqrt(np.arange(1.0, 32.0) * mean)  # eigh reads the lower triangle
    nodes, vecs = np.linalg.eigh(np.diag(np.arange(32.0)) + np.diag(off, -1))
    nodes, w = nodes + mean, vecs[0] ** 2
    nodes.flags.writeable = w.flags.writeable = False
    return nodes, w
