"""Properties of the analytic chain over the documented domain.

mu = lam*pi*d^2 from 1e-9 to 1e4 and alpha from 2.05 to 60: every value is
finite, the bounds sandwich the cognitive throughput, cognitive rates beat
fixed rates, joint decoding beats interference as noise, and (lam, d)
enter only through mu.  Orderings allow a relative slack of 1e-9.  The
noise-rule Markov bound at y is the fixed-rate objective at the matching
threshold 2^y - 1.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pppt import fixed_rate, ian, opt
from pppt.ian import _markov_bound
from pppt.model import DecodingRule, NetworkConfig

SLACK = 1e-9

log10_mu = st.floats(-9.0, 4.0)
alphas = st.floats(2.05, 60.0)
# the noise-rule bound holds for any y > 0; the joint-rule schedule must
# clear the widest conditional support edge, log2(2)/1 = 1
y_ian = st.floats(0.01, 10.0)
y_opt = st.floats(1.01, 10.0)


def throughputs(cfg: NetworkConfig, y_i: float, y_o: float) -> dict:
    return {
        "c_ian": ian.cognitive_throughput(cfg).value,
        "c_opt": opt.cognitive_throughput(cfg).value,
        "lower_ian": ian.lower_bound(cfg, y_i).value,
        "lower_opt": opt.lower_bound(cfg, y_o).value,
        "upper_ian": ian.upper_bound(cfg).value,
        "upper_opt": opt.upper_bound(cfg).value,
        "fixed_ian": fixed_rate.highest_throughput(cfg, DecodingRule.IAN).throughput.value,
        "fixed_opt": fixed_rate.highest_throughput(cfg, DecodingRule.OPT).throughput.value,
    }


def at_most(a: float, b: float) -> bool:
    return a <= b * (1.0 + SLACK)


@given(x=log10_mu, alpha=alphas, y_i=y_ian, y_o=y_opt)
# mean rates below 1e-4, where an absolute quadrature floor of 1e-12 put the
# noise-rule throughput 26% and 1% above its Jensen bound
@example(x=math.log10(9199.0), alpha=56.0, y_i=1.0, y_o=2.0)
@example(x=math.log10(731.0), alpha=27.0, y_i=1.0, y_o=2.0)
@settings(max_examples=40, deadline=None)
def test_orderings(x, alpha, y_i, y_o):
    v = throughputs(NetworkConfig(10.0**x / math.pi, 1.0, alpha), y_i, y_o)
    assert all(math.isfinite(value) for value in v.values()), v
    for rule in ("ian", "opt"):
        assert at_most(v[f"lower_{rule}"], v[f"c_{rule}"]), v
        assert at_most(v[f"c_{rule}"], v[f"upper_{rule}"]), v
        assert at_most(v[f"fixed_{rule}"], v[f"c_{rule}"]), v
    assert at_most(v["c_ian"], v["c_opt"]), v


@given(x=log10_mu, alpha=alphas, d=st.floats(0.1, 10.0))
# lam = 1e5/(pi*d^2) near 3e298: lam * rate must not overflow where the
# success probability is 0
@example(x=5.0, alpha=20.0, d=1e-150)
@example(x=5.0, alpha=60.0, d=1e-150)
@settings(max_examples=20, deadline=None)
def test_per_unit_density_depends_only_on_mu(x, alpha, d):
    mu = 10.0**x
    cfgs = NetworkConfig(mu / math.pi, 1.0, alpha), NetworkConfig(mu / (math.pi * d * d), d, alpha)
    base, moved = ({k: v / cfg.lam for k, v in throughputs(cfg, 1.0, 2.0).items()} for cfg in cfgs)
    for key in base:
        # the absolute floor only forgives values in the subnormal range
        assert math.isclose(base[key], moved[key], rel_tol=SLACK, abs_tol=1e-300), \
            (key, base[key], moved[key])


@given(x=log10_mu, alpha=alphas, y=y_ian)
@settings(max_examples=40, deadline=None)
def test_noise_rule_bound_is_fixed_rate_objective(x, alpha, y):
    cfg = NetworkConfig(10.0**x / math.pi, 1.0, alpha)
    bound = ian.lower_bound(cfg, y).value
    # 2^y - 1 by expm1: the subtraction loses digits at small y, which the
    # success probability amplifies by up to mu
    threshold = math.expm1(y * math.log(2.0))
    objective = _markov_bound(cfg, np.ones(1), np.ones(1), 0.0,
                              np.atleast_1d(math.log(threshold))).value
    assert math.isclose(bound, objective, rel_tol=1e-12, abs_tol=0.0), (bound, objective)
