"""Every public analytic function over the documented domain: a finite
value >= 0, or a typed error.

The grid runs alpha from just above 2 to 60 and mu = lam*pi*d^2 from 1e-9
to 1e6 by decades, at link distances 1e-100, 1 and 1e100 up to mu = 1e3 (d
moves lam, and with it every value that scales with the density, towards
the ends of the double range) and at d = 1 above it, and at mu = 1e-300 and
2.3e-308, near the smallest normal double, at d = 1, where u/mu at the
quadrature's last nodes is past the double range.  A value past the
double range is the library's ArithmeticError; an OverflowError is math's,
and fails the scan.
"""
import math

import numpy as np
import pytest

from pppt import fixed_rate, ian, opt
from pppt.model import DecodingRule, NetworkConfig

ALPHAS = [2.05, 4.0, 20.0, 60.0]
MUS = [2.3e-308, 1e-300] + [10.0**e for e in range(-9, 7)]
PDF_POINTS = np.array([1e-3, 1.0, 10.0])

CALLS = {
    "ian.cognitive_throughput": lambda cfg: ian.cognitive_throughput(cfg).value,
    "ian.lower_bound": lambda cfg: ian.lower_bound(cfg, 1.0).value,
    "ian.upper_bound": lambda cfg: ian.upper_bound(cfg).value,
    "ian.asymptote": lambda cfg: ian.asymptote(cfg).value,
    "ian.pdf_rate": lambda cfg: ian.pdf_rate(cfg, PDF_POINTS),
    "opt.cognitive_throughput": lambda cfg: opt.cognitive_throughput(cfg).value,
    "opt.lower_bound": lambda cfg: opt.lower_bound(cfg, 2.0).value,
    "opt.upper_bound": lambda cfg: opt.upper_bound(cfg).value,
    "fixed_rate.highest_throughput[ian]": lambda cfg: _fixed(cfg, DecodingRule.IAN),
    "fixed_rate.highest_throughput[opt]": lambda cfg: _fixed(cfg, DecodingRule.OPT),
}


def _fixed(cfg, rule):
    sol = fixed_rate.highest_throughput(cfg, rule)
    return np.concatenate([sol.sir_thresholds, sol.rates, [sol.throughput.value]])


def _cells(alpha):
    for mu in MUS:
        for d in (1e-100, 1.0, 1e100) if 1e-9 <= mu <= 1e3 else (1.0,):
            yield mu, d, NetworkConfig(mu / math.pi / d / d, d, alpha)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_finite_value_or_typed_error(alpha):
    bad = []
    for mu, d, cfg in _cells(alpha):
        for name, call in CALLS.items():
            try:
                values = np.asarray(call(cfg), dtype=float)
            except OverflowError as exc:
                bad.append((name, mu, d, f"OverflowError: {exc}"))
            except (ValueError, ArithmeticError):
                continue
            else:
                if not np.all(np.isfinite(values) & (values >= 0)):
                    bad.append((name, mu, d, values))
    assert not bad, bad


@pytest.mark.parametrize("mu", [1e-300, 2.3e-308])
@pytest.mark.parametrize("alpha", [2.05, 4.0, 60.0])
def test_small_mu_mean_rate_limit(alpha, mu):
    # with u = mu*sir^(2/alpha) ~ Exp(1) and E[log u] = -gamma, both rules'
    # E[R] tend to (alpha/2) * (-gamma - ln mu) / ln2 as mu -> 0, and the
    # joint rule's truncation at sir > 1 stops mattering
    cfg = NetworkConfig(mu / math.pi, 1.0, alpha)
    limit = alpha / 2.0 * (-np.euler_gamma - math.log(mu)) / math.log(2.0)
    assert ian.cognitive_throughput(cfg).value / cfg.lam == pytest.approx(limit, rel=1e-8)
    assert opt.cognitive_throughput(cfg).value / cfg.lam == pytest.approx(limit, rel=1e-8)
    assert opt.conditional_mean_rate(cfg, 0) == pytest.approx(limit, rel=1e-8)
    assert opt.upper_bound(cfg).value == pytest.approx(ian.upper_bound(cfg).value, rel=1e-8)


DENSITY_MUS = [1e-9, 1.0, 1e4]
DENSITY_POINTS = [5e-324, 1e-300, 1e-30, 0.5, 1.0, 1.0 + 1e-12, 2.0, 50.0, 1e3, 1e5, 1e160,
                  1e300, 1e303, 1.7e308, math.inf]
DENSITIES = {
    "ian.pdf_nearest_distance": ian.pdf_nearest_distance,
    "ian.pdf_sir": ian.pdf_sir,
    "ian.pdf_rate": ian.pdf_rate,
    "opt.pdf_sir": opt.pdf_sir,
    "opt.pdf_rate_conditional[0]": lambda cfg, x: opt.pdf_rate_conditional(cfg, 0, x),
    "opt.pdf_rate_conditional[1e6]": lambda cfg, x: opt.pdf_rate_conditional(cfg, 10**6, x),
    "opt.pdf_rate": opt.pdf_rate,
}
# the only densities past the double range on the grid: about e^716 and
# e^725 = (2*mu/alpha) * x^(2/alpha - 1) at x = 5e-324, alpha = 60
PAST_DOUBLE_RANGE = {(name, 60.0, mu, 5e-324)
                     for name in ("ian.pdf_sir", "ian.pdf_rate") for mu in (1.0, 1e4)}


@pytest.mark.parametrize("alpha", ALPHAS)
def test_density_finite_or_typed_error(alpha):
    """Every density at one point at a time, from the smallest subnormal to
    inf: a finite value >= 0 (0 where the law has no mass), or the
    library's ArithmeticError past the double range."""
    bad, raised = [], set()
    for mu in DENSITY_MUS:
        cfg = NetworkConfig(mu / math.pi, 1.0, alpha)
        for name, density in DENSITIES.items():
            for x in DENSITY_POINTS:
                try:
                    value = density(cfg, x)
                except OverflowError as exc:
                    bad.append((name, mu, x, f"OverflowError: {exc}"))
                except ArithmeticError:
                    raised.add((name, alpha, mu, x))
                else:
                    if not (math.isfinite(value) and value >= 0):
                        bad.append((name, mu, x, value))
    assert not bad, bad
    assert raised == {cell for cell in PAST_DOUBLE_RANGE if cell[1] == alpha}
