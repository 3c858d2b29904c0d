"""Golden-section search: the test-side reference for ``ian.optimal_density``.

The library finds the optimal density by root finding on its first-order
condition; this maximizer uses only values of the objective, so it checks
that root independently.
"""
import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
