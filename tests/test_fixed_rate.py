import math
import warnings

import numpy as np
import pytest

from pppt import fixed_rate, ian, opt
from pppt.model import DecodingRule, NetworkConfig
from pppt.numerics import truncated_poisson_weights

# Frozen oracle values at mu = 1, alpha = 4: the threshold comes from a
# 1e-4-step grid search over the rate * success-probability objective,
# refined by 40-digit root finding on its stationarity condition; the
# throughputs follow by substitution (mpmath-confirmed).
BETA_STAR_MU1_A4 = 1.6386493020309000
T_IAN_AT_INV_PI = 0.12387303245884470
T_OPT_AT_INV_PI = 0.27142660421629522
OPT_THRESHOLDS_MU1_A4 = [1.63864930203090, 1.28185180598829, 1.10460033990464]

CFG1 = NetworkConfig(1 / math.pi, 1.0, 4.0)  # mu = 1


def objective_grid_argmax(cfg, joint=0, step=1e-4, hi=400.0):
    """Brute-force argmax of the fixed-rate objective, the test-side oracle."""
    k = 1 + joint
    e = 2.0 / cfg.alpha
    if joint == 0:
        b = np.arange(step, hi, step)
        s = np.log2(1.0 + b) * np.exp(-cfg.mu * b**e)
    else:
        b = np.arange(1.0 + step, hi, step)
        s = np.log2(1.0 + k * b) / k * np.exp(-cfg.mu * (b**e - 1.0))
    return float(b[np.argmax(s)])


class TestSpatialThroughputAt:
    def test_ian_direct_substitution(self):
        v = fixed_rate.spatial_throughput_at(CFG1, DecodingRule.IAN, 1.0)
        assert v == pytest.approx(1.0 / (math.e * math.pi), rel=1e-14)

    def test_ian_concave_hump_limits(self):
        assert fixed_rate.spatial_throughput_at(CFG1, DecodingRule.IAN, 1e-12) < 1e-11
        assert fixed_rate.spatial_throughput_at(CFG1, DecodingRule.IAN, 1e12) < 1e-11

    def test_opt_term_matches_formula(self):
        v = fixed_rate.spatial_throughput_at(CFG1, DecodingRule.OPT, 2.0, joint=1)
        expected = CFG1.lam * math.log2(5.0) / 2.0 * math.exp(-(math.sqrt(2.0) - 1.0))
        assert v == pytest.approx(expected, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fixed_rate.spatial_throughput_at(CFG1, DecodingRule.IAN, 0.0)
        with pytest.raises(ValueError):
            fixed_rate.spatial_throughput_at(CFG1, DecodingRule.IAN, 1.0, joint=1)
        with pytest.raises(ValueError):
            fixed_rate.spatial_throughput_at(CFG1, DecodingRule.OPT, 1.0)
        with pytest.raises(ValueError):
            fixed_rate.spatial_throughput_at(CFG1, DecodingRule.OPT, 2.0, joint=-1)
        with pytest.raises(ValueError, match="joint-decode count"):
            fixed_rate.spatial_throughput_at(CFG1, DecodingRule.OPT, 2.0, joint=1.5)

    @pytest.mark.parametrize("rule", list(DecodingRule))
    @pytest.mark.parametrize("sir", [math.inf, math.nan])
    def test_non_finite_threshold_rejected(self, rule, sir):
        # inf used to come back as log1p(inf) * 0 = NaN
        with pytest.raises(ValueError):
            fixed_rate.spatial_throughput_at(CFG1, rule, sir)

    @pytest.mark.parametrize("rule,joint", [(DecodingRule.IAN, 0), (DecodingRule.OPT, 0),
                                            (DecodingRule.OPT, 5)])
    def test_huge_threshold_gives_zero(self, rule, joint):
        # (1+joint)*sir overflows a double at joint = 5; the success
        # probability exp(-sqrt(1e308)) is 0 either way
        cfg = NetworkConfig(1.0, 1.0, 4.0)
        assert fixed_rate.spatial_throughput_at(cfg, rule, 1e308, joint) == 0.0


class TestOptimalSirThreshold:
    def test_pinned_root(self):
        b, boundary = fixed_rate.optimal_sir_threshold(CFG1, DecodingRule.IAN)
        assert b == pytest.approx(BETA_STAR_MU1_A4, rel=1e-9)
        assert not boundary

    def test_fixed_point_residual(self):
        # the root must satisfy b = ((2/alpha) mu (1+b) ln(1+b))^(alpha/(alpha-2))
        for mu, alpha in [(1.0, 4.0), (0.3, 3.0), (5.0, 6.0)]:
            cfg = NetworkConfig(mu / math.pi, 1.0, alpha)
            b, _ = fixed_rate.optimal_sir_threshold(cfg, DecodingRule.IAN)
            rhs = ((2.0 / alpha) * mu * (1.0 + b) * math.log1p(b)) ** (alpha / (alpha - 2.0))
            assert rhs == pytest.approx(b, rel=1e-8)

    def test_depends_only_on_density_distance_product(self):
        a, _ = fixed_rate.optimal_sir_threshold(NetworkConfig(1.0, 1.0, 4.0), DecodingRule.IAN)
        b, _ = fixed_rate.optimal_sir_threshold(NetworkConfig(0.25, 2.0, 4.0), DecodingRule.IAN)
        assert a == pytest.approx(b, rel=1e-10)

    def test_grid_search_agreement(self):
        # twenty random parameter pairs against the brute-force oracle
        rng = np.random.default_rng(2024)
        for _ in range(20):
            mu = float(np.exp(rng.uniform(np.log(0.2), np.log(20.0))))
            alpha = float(rng.uniform(2.5, 6.0))
            cfg = NetworkConfig(mu / math.pi, 1.0, alpha)
            root, boundary = fixed_rate.optimal_sir_threshold(cfg, DecodingRule.IAN)
            grid = objective_grid_argmax(cfg)
            assert abs(root - grid) <= max(1e-3, 1e-3 * grid)
            assert not boundary

    def test_opt_thresholds_and_boundary(self):
        for i, ref in enumerate(OPT_THRESHOLDS_MU1_A4):
            b, boundary = fixed_rate.optimal_sir_threshold(CFG1, DecodingRule.OPT, joint=i)
            assert b == pytest.approx(ref, rel=1e-9)
            assert not boundary
        b, boundary = fixed_rate.optimal_sir_threshold(CFG1, DecodingRule.OPT, joint=3)
        assert boundary and b == pytest.approx(1.0, abs=1e-8)
        assert b > 1.0  # the support edge itself is never returned

    def test_opt_grid_search_agreement(self):
        for joint in (1, 2):
            root, _ = fixed_rate.optimal_sir_threshold(CFG1, DecodingRule.OPT, joint=joint)
            grid = objective_grid_argmax(CFG1, joint=joint, hi=50.0)
            assert abs(root - grid) <= 1e-3

    def test_boundary_dominates_at_high_density(self):
        cfg = NetworkConfig(10.0, 1.0, 4.0)
        flags = [
            fixed_rate.optimal_sir_threshold(cfg, DecodingRule.OPT, joint=i)[1]
            for i in range(6)
        ]
        assert all(flags)

    @pytest.mark.parametrize("rule,joint", [(DecodingRule.IAN, 1), (DecodingRule.OPT, -1),
                                            (DecodingRule.OPT, 1.5), (DecodingRule.OPT, 2.0)])
    def test_argument_errors(self, rule, joint):
        with pytest.raises(ValueError):
            fixed_rate.optimal_sir_threshold(CFG1, rule, joint=joint)

    def test_numpy_integer_joint(self):
        b, _ = fixed_rate.optimal_sir_threshold(CFG1, DecodingRule.OPT, joint=np.int64(1))
        assert b == fixed_rate.optimal_sir_threshold(CFG1, DecodingRule.OPT, joint=1)[0]

    def test_never_returns_support_edge_ian(self):
        for mu in (0.01, 1.0, 50.0):
            cfg = NetworkConfig(mu / math.pi, 1.0, 4.0)
            b, _ = fixed_rate.optimal_sir_threshold(cfg, DecodingRule.IAN)
            assert b > 0.0


class TestHighestThroughput:
    def test_ian_pinned(self):
        sol = fixed_rate.highest_throughput(CFG1, DecodingRule.IAN)
        assert sol.throughput.value == pytest.approx(T_IAN_AT_INV_PI, rel=1e-10)
        assert sol.throughput.method == "fixed_rate"
        assert sol.rates[0] == pytest.approx(math.log2(1.0 + BETA_STAR_MU1_A4), rel=1e-9)

    def test_opt_pinned(self):
        sol = fixed_rate.highest_throughput(CFG1, DecodingRule.OPT)
        assert sol.throughput.value == pytest.approx(T_OPT_AT_INV_PI, rel=1e-9)
        assert len(sol.rates) == len(truncated_poisson_weights(CFG1.mu))

    @pytest.mark.parametrize("rule", list(DecodingRule))
    @pytest.mark.parametrize("alpha", [56.0, 60.0])
    def test_steep_sparse_thresholds_warn_nothing(self, rule, alpha):
        # Brent's discarded interpolation step overflowed here and printed
        # a RuntimeWarning although the root was fine
        cfg = NetworkConfig(3e-9 / math.pi, 1.0, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = fixed_rate.highest_throughput(cfg, rule)
        assert math.isfinite(sol.throughput.value) and sol.throughput.value > 0.0

    def test_fixed_below_cognitive(self):
        for lam in np.geomspace(0.02, 5.0, 5):
            cfg = NetworkConfig(lam, 1.0, 4.0)
            assert (fixed_rate.highest_throughput(cfg, DecodingRule.IAN).throughput.value
                    <= ian.cognitive_throughput(cfg).value + 1e-9)
            assert (fixed_rate.highest_throughput(cfg, DecodingRule.OPT).throughput.value
                    <= opt.cognitive_throughput(cfg).value + 1e-9)

    def test_vanishes_with_density(self):
        cfg = NetworkConfig(1e-10, 1.0, 4.0)
        assert fixed_rate.highest_throughput(cfg, DecodingRule.IAN).throughput.value < 1e-8

    def test_matches_rate_schedule_bound(self):
        # feeding the optimized per-count rates into the joint-decoding lower
        # bound must reproduce the fixed-rate throughput identically
        sol = fixed_rate.highest_throughput(CFG1, DecodingRule.OPT)
        bound = opt.lower_bound(CFG1, lambda i: float(sol.rates[i]))
        assert bound.value == pytest.approx(sol.throughput.value, rel=1e-8)


class TestCompare:
    def test_report_contents(self):
        rep = fixed_rate.compare_cognitive_vs_fixed(CFG1)
        assert set(rep) == {"c_ian", "t_ian", "c_opt", "t_opt", "gap_ian", "gap_opt"}
        assert rep["gap_ian"] >= -1e-9 and rep["gap_opt"] >= -1e-9
        assert rep["gap_ian"] == pytest.approx(rep["c_ian"] - rep["t_ian"], rel=1e-12)

    def test_rules_converge_at_low_density(self):
        rep = fixed_rate.compare_cognitive_vs_fixed(NetworkConfig(1e-4, 1.0, 4.0))
        assert 1.0 <= rep["c_opt"] / rep["c_ian"] < 1.01

    def test_mid_density_ordering(self):
        rep = fixed_rate.compare_cognitive_vs_fixed(NetworkConfig(1.0, 1.0, 4.0))
        assert rep["t_ian"] <= min(rep["c_ian"], rep["t_opt"])
        assert max(rep["c_ian"], rep["t_opt"]) <= rep["c_opt"]
