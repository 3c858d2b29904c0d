import math

import numpy as np
import pytest
from scipy import stats

from pppt import ian, opt
from pppt.model import DecodingRule, NetworkConfig, ThroughputValue
from pppt.simulation import _collect_stats, estimate_cognitive


class TestNetworkConfig:
    @pytest.mark.parametrize("lam,d,alpha", [
        (0.0, 1.0, 4.0), (-1.0, 1.0, 4.0), (math.nan, 1.0, 4.0),
        (1.0, 0.0, 4.0), (1.0, -2.0, 4.0),
        (1.0, 1.0, 2.0), (1.0, 1.0, 1.5), (1.0, 1.0, math.inf),
    ])
    def test_rejects_invalid(self, lam, d, alpha):
        with pytest.raises(ValueError):
            NetworkConfig(lam, d, alpha)

    @pytest.mark.parametrize("lam,d", [(1.01e7 / math.pi, 1.0), (1e20, 1.0), (1e300, 1.0),
                                       (1.0, 1e200), (1e-300, 1e-100), (1e-300, 1e-12)])
    def test_rejects_mu_past_bound(self, lam, d):
        # above 1e7, or underflowed to 0 (d = 1e-100) or to a subnormal (d = 1e-12)
        with pytest.raises(ValueError, match="mu = lam"):
            NetworkConfig(lam, d, 4.0)

    def test_mu(self):
        cfg = NetworkConfig(2.0, 0.5, 3.0)
        assert cfg.mu == pytest.approx(2.0 * math.pi * 0.25, rel=1e-15)
        assert NetworkConfig(1 / math.pi, 1.0, 4.0).mu == pytest.approx(1.0, rel=1e-15)
        assert NetworkConfig(0.99e7 / math.pi, 1.0, 4.0).mu == pytest.approx(0.99e7, rel=1e-15)

    def test_frozen(self):
        cfg = NetworkConfig(1.0, 1.0, 4.0)
        with pytest.raises(AttributeError):
            cfg.lam = 2.0


class TestThroughputValue:
    def test_valid(self):
        tv = ThroughputValue(0.1)
        assert tv.value == 0.1

    @pytest.mark.parametrize("value", [-1e-6, math.nan, math.inf])
    def test_invalid_value(self, value):
        # a value past the double range is a failed computation, not bad input
        with pytest.raises(ValueError if math.isfinite(value) else ArithmeticError):
            ThroughputValue(value)


class TestSampling:
    """Counts and seeding of the window kernel; with window = d = 10 every
    sampled point lies in the decode set, so ``n_dec`` is the window count
    and the noise set holds only the far mean 2*mu/(alpha - 2)."""

    CFG = NetworkConfig(1.0, 10.0, 4.0)

    def counts(self, cfg, n):
        return _collect_stats(cfg, 10.0, seed=0, n_realizations=n)[DecodingRule.OPT].n

    def test_deterministic(self):
        a, b, c = (_collect_stats(self.CFG, 10.0, seed=s, n_realizations=20)[DecodingRule.IAN]
                   for s in (1234, 1234, 1235))
        assert np.array_equal(a.r2_noise, b.r2_noise) and np.array_equal(a.noise, b.noise)
        assert not np.array_equal(a.r2_noise, c.r2_noise)

    def test_negative_seed_accepted(self):
        a = _collect_stats(self.CFG, 10.0, seed=-3, n_realizations=20)
        b = _collect_stats(self.CFG, 10.0, seed=2**64 - 3, n_realizations=20)
        for rule in DecodingRule:
            assert all(np.array_equal(x, y) for x, y in zip(a[rule], b[rule]))

    def test_interferers_inside_window(self):
        # a point at or beyond the window radius would land in the noise set
        cfg = self.CFG
        stats = _collect_stats(cfg, 10.0, seed=7, n_realizations=20)
        ring = stats[DecodingRule.OPT]
        assert np.all(ring.n > 0) and np.all(stats[DecodingRule.IAN].r2_noise < 100.0)
        assert np.all(ring.noise == 2.0 * cfg.mu / (cfg.alpha - 2.0))
        assert np.all(np.isinf(ring.r2_noise))

    def test_empty_process_limit(self):
        # mu ~ 3e-9: almost no link has an interferer within d, but the
        # default window holds about 201 points per realization, so no
        # rate is infinite; the closest-only estimate matches the closed
        # form, and the full interference only lowers it
        cfg = NetworkConfig(1e-9, 1.0, 4.0)
        for rule, closed_form in ((DecodingRule.IAN, ian), (DecodingRule.OPT, opt)):
            analytic = closed_form.cognitive_throughput(cfg).value
            closest = estimate_cognitive(cfg, rule, "closest_only", n_realizations=100)
            assert abs(closest.mean - analytic) < 4.0 * closest.stderr
            full = estimate_cognitive(cfg, rule, n_realizations=100)
            assert 0.0 < full.mean < analytic

    def test_count_law_of_large_numbers(self):
        # mean interferer count over many realizations approaches lam*pi*R^2
        counts = self.counts(self.CFG, 10_000)
        expected = 100.0 * math.pi
        stderr = math.sqrt(expected / len(counts))
        assert abs(counts.mean() - expected) < 3.0 * stderr

    def test_count_chi_squared(self):
        # goodness of fit of the count distribution at significance 0.01
        cfg = NetworkConfig(0.05, 10.0, 4.0)  # mean 5*pi in a radius-10 window
        counts = self.counts(cfg, 4000)
        mean = cfg.lam * math.pi * 100.0
        lo, hi = 5, 27  # pool the tails so expected bin counts stay above 5
        observed = [np.sum(counts <= lo)]
        observed += [np.sum(counts == k) for k in range(lo + 1, hi)]
        observed.append(np.sum(counts >= hi))
        expected = [stats.poisson.cdf(lo, mean)]
        expected += [stats.poisson.pmf(k, mean) for k in range(lo + 1, hi)]
        expected.append(stats.poisson.sf(hi - 1, mean))
        expected = np.array(expected) * len(counts)
        assert min(expected) > 5
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.01


class TestNearestDistance:
    def test_empty_window_signalled(self):
        # an empty window has no nearest interferer; the kernel reports inf,
        # which the closest-only rate law turns into an infinite rate, and
        # the noise set holds only the far mean of the plane beyond it
        cfg = NetworkConfig(1e-9, 1.0, 4.0)
        stats = _collect_stats(cfg, 10.0, seed=0, n_realizations=50)
        far = 2.0 * cfg.mu * 10.0 ** (2.0 - cfg.alpha) / (cfg.alpha - 2.0)
        for view in stats.values():
            assert np.all(np.isinf(view.r2_noise)) and not np.any(view.n)
            assert np.all(view.noise == far)
