"""Every public analytic function over the documented domain: a finite
value >= 0, or a typed error.

The grid runs alpha from just above 2 to 60 and mu = lam*pi*d^2 from 1e-9
to 1e6 by decades, at link distances 1e-100, 1 and 1e100 up to mu = 1e3 (d
moves lam, and with it every value that scales with the density, towards
the ends of the double range) and at d = 1 above it.  A value past the
double range is the library's ArithmeticError; an OverflowError is math's,
and fails the scan.
"""
import math

import numpy as np
import pytest

from pppt import fixed_rate, ian, opt
from pppt.model import DecodingRule, NetworkConfig

ALPHAS = [2.05, 4.0, 20.0, 60.0]
MUS = [10.0**e for e in range(-9, 7)]
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
        for d in (1e-100, 1.0, 1e100) if mu <= 1e3 else (1.0,):
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
