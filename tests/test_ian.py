import math
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad

from pppt import ian
from pppt.model import DecodingRule, NetworkConfig

from golden_section import maximize_unimodal

# Frozen before this module was written, by three mutually independent
# oracles (a 4e6-point midpoint Riemann sum, a 1e7-draw Monte Carlo over the
# SIR law, and 40-digit adaptive quadrature in mpmath), all agreeing on the
# digits shown.
MEAN_RATE_MU1_A4 = 0.99077936457603681          # E[R] at lam=1/pi, d=1, alpha=4
C_IAN_AT_INV_PI = 0.31537486677144672           # the above times lam
LAM_STAR_A4_D1 = 0.24525338409469832            # argmax density, alpha=4, d=1
ASYMPTOTE_CONST_A4_D1 = 2.0 / (math.pi**2 * math.log(2.0))

CFG1 = NetworkConfig(1 / math.pi, 1.0, 4.0)     # mu = 1

# E[R] at small mu, where the rate turns from a power of u into a logarithm
# at u = mu, far below the bulk of e^-u: mu * int log2(1 + v^(alpha/2))
# e^(-mu*v) dv split at v = 1, computed with mpmath at 30 and at 40 digits
# (agreeing on every digit shown), frozen.
SMALL_MU_MEAN_RATES = [
    (1e-5, 20.0, 157.769089641469074692642502701),
    (1e-5, 60.0, 473.307262514279934953533454484),
    (1e-6, 4.0, 38.1976493164334929652051796991),
    (1e-7, 2.5, 28.0259388671842250195913486815),
]
NORMALIZATION_CFGS = [
    NetworkConfig(0.1, 1.0, 3.0),
    NetworkConfig(1.0, 1.0, 4.0),
    NetworkConfig(2.0, 0.5, 6.0),
]


def pdf_mass(f, split=1.0):
    # singular head handled on the finite leg, smooth tail on the infinite one
    head, _ = quad(f, 0.0, split, limit=500)
    tail, _ = quad(f, split, np.inf, limit=500)
    return head + tail


class TestRateLaw:
    def test_inverse_round_trip(self):
        # _log_sir_at_rate inverts _rate to the last digits, also past
        # k*y*ln2 = 709, where the SIR b = expm1(k*y*ln2)/k itself overflows
        assert ian._rate(2.0, math.log(3.0)) == pytest.approx(math.log2(7.0) / 2.0, rel=1e-15)
        k, y = np.meshgrid([1.0, 2.0, 7.0, 1e2, 1e4, 1e6], np.geomspace(1e-9, 1e4, 131))
        log_b = ian._log_sir_at_rate(y, k)
        assert np.all(np.isfinite(log_b)) and np.any(k * y * math.log(2.0) > 709.0)
        np.testing.assert_allclose(ian._rate(k, log_b), y, rtol=1e-13, atol=0.0)


class TestSirLaw:
    @pytest.mark.parametrize("edge", [0.0, 1.0])
    def test_ccdf_direct_substitution(self, edge):
        cfg = NetworkConfig(2.0 / math.pi, 1.0, 4.0)  # mu = 2
        b = np.array([1.5, 3.0, 10.0, 1e4])
        want = -2.0 * (np.sqrt(b) - edge)
        np.testing.assert_allclose(ian._log_sir_ccdf(cfg, np.log(b), edge), want, rtol=1e-14)

    def test_ccdf_keeps_digits_at_the_edge(self):
        # b = 1 + 1e-10: b^(2/alpha) - 1 cancels to 6 digits, expm1 keeps all;
        # -mu * (sqrt(b) - 1) at mu = 1, from the same log b at 50 digits
        log_b = math.log1p(1e-10)
        with localcontext() as ctx:
            ctx.prec = 50
            want = 1 - (Decimal(log_b) / 2).exp()
        got = ian._log_sir_ccdf(CFG1, log_b, 1.0)
        assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("edge", [0.0, 1.0])
    def test_ccdf_is_minus_inf_past_the_double_range(self, edge):
        # b^(2/alpha) = e^1951 overflows: the success probability is 0, quietly
        cfg = NetworkConfig(1.0, 1.0, 2.05)
        with np.errstate(all="raise"):
            got = ian._log_sir_ccdf(cfg, np.array([2000.0]), edge)
        assert got[0] == -math.inf

    @pytest.mark.parametrize("edge", [0.0, 1.0])
    @pytest.mark.parametrize("mu", [1e-9, 1.0, 1e6, 1e-300])
    def test_inverse_round_trip(self, mu, edge):
        # _log_sir_at_u inverts _log_sir_ccdf: -log P[sir > b(u)] = u
        u = np.geomspace(1e-12, 1e3, 61)
        for alpha in (2.05, 4.0, 60.0):
            cfg = NetworkConfig(mu / math.pi, 1.0, alpha)
            log_b = ian._log_sir_at_u(mu, alpha / 2.0, u, edge)
            np.testing.assert_allclose(-ian._log_sir_ccdf(cfg, log_b, edge), u, rtol=1e-12)
        # u = 0, the peak of the edge-1 mean's integrand at mu >= alpha/2: b = 1, quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ian._log_sir_at_u(mu, 2.0, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("edge", [0.0, 1.0])
    def test_inverse_past_the_double_range(self, edge):
        # mu = 2.3e-308, the foot of the domain: u/mu passes the double range
        # from u = 4.1 (so does b^(2/alpha), where _log_sir_ccdf reads P = 0);
        # log b = (alpha/2) * log(edge + u/mu) against 40-digit decimals
        mu, u = 2.3e-308, np.geomspace(1e-12, 1e3, 61)
        assert np.any(u > mu * sys.float_info.max)
        for alpha in (2.05, 4.0, 60.0):
            with localcontext() as ctx:
                ctx.prec = 40
                want = [float((Decimal(edge) + Decimal(x) / Decimal(mu)).ln() * Decimal(alpha) / 2)
                        for x in u]
            np.testing.assert_allclose(ian._log_sir_at_u(mu, alpha / 2.0, u, edge), want,
                                       rtol=1e-14)

    def test_mean_is_the_integral_of_the_ccdf(self):
        # E[sir] = int_0^inf P[sir > b] db = Gamma(3) / mu^2 = 2 at alpha = 4, mu = 1
        mass = pdf_mass(lambda b: math.exp(ian._log_sir_ccdf(CFG1, math.log(b), 0.0)))
        assert ian._log_mean_sir(CFG1, 0.0) == pytest.approx(math.log(2.0), rel=1e-14)
        assert mass == pytest.approx(2.0, rel=1e-9)


class TestNearestDistancePdf:
    def test_direct_substitution(self):
        assert ian.pdf_nearest_distance(CFG1, 1.0) == pytest.approx(2.0 / math.e, rel=1e-14)

    def test_boundary(self):
        assert ian.pdf_nearest_distance(CFG1, 0.0) == 0.0
        assert ian.pdf_nearest_distance(CFG1, -1.0) == 0.0

    @pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
    def test_normalization(self, lam):
        cfg = NetworkConfig(lam, 1.0, 4.0)
        mass = pdf_mass(lambda x: ian.pdf_nearest_distance(cfg, x), split=1.0 / math.sqrt(lam))
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_peak_where_two_lam_pi_overflows(self):
        # 2*lam*pi = 1.9e308 is past the double range; the density's peak,
        # sqrt(2*lam*pi/e) at x = (2*lam*pi)^(-1/2), is not
        cfg = NetworkConfig(3e307, 1e-157, 4.0)
        x = 1.0 / math.sqrt(2.0 * math.pi) / math.sqrt(cfg.lam)
        peak = math.sqrt(2.0 * math.pi) * math.sqrt(cfg.lam) * math.exp(-0.5)
        assert ian.pdf_nearest_distance(cfg, x) == pytest.approx(peak, rel=1e-13)


class TestSirPdf:
    def test_direct_substitution(self):
        assert ian.pdf_sir(CFG1, 1.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-14)

    def test_mean_is_gamma_moment(self):
        mean, _ = quad(lambda x: x * ian.pdf_sir(CFG1, x), 0.0, np.inf, limit=500)
        assert mean == pytest.approx(2.0, rel=1e-6)  # Gamma(1 + alpha/2) at mu = 1

    @pytest.mark.parametrize("cfg", NORMALIZATION_CFGS)
    def test_normalization(self, cfg):
        assert pdf_mass(lambda x: ian.pdf_sir(cfg, x)) == pytest.approx(1.0, abs=1e-8)

    def test_digits_where_the_survival_is_subnormal(self):
        # P[sir > x] = e^-735 is subnormal and x^(2/alpha - 1) = e^76; the
        # density 8.0199866480606454e-285 from the formula at 50 digits
        x, mu, alpha = 1e-34, 1e4, 60.0
        with localcontext() as ctx:
            ctx.prec = 50
            log_x, e = Decimal(x).ln(), 2 / Decimal(alpha)
            want = (2 * Decimal(mu) / Decimal(alpha) * ((e - 1) * log_x).exp()
                    * (-Decimal(mu) * (e * log_x).exp()).exp())
        cfg = NetworkConfig(mu / math.pi, 1.0, alpha)
        assert cfg.mu == mu
        assert ian.pdf_sir(cfg, x) == pytest.approx(float(want), rel=1e-13, abs=0.0)


class TestRatePdf:
    def test_direct_substitution(self):
        # at mu = 1, alpha = 4, x = 1 the density collapses to ln4 / (2 e)
        assert ian.pdf_rate(CFG1, 1.0) == pytest.approx(math.log(4.0) / (2.0 * math.e), rel=1e-12)

    def test_small_rate_power_law(self):
        # near zero the density scales like x^(2/alpha - 1)
        e = 2.0 / CFG1.alpha - 1.0
        r1 = ian.pdf_rate(CFG1, 1e-6) / 1e-6**e
        r2 = ian.pdf_rate(CFG1, 1e-8) / 1e-8**e
        assert r1 / r2 == pytest.approx(1.0, rel=1e-2)

    def test_zero_below_support(self):
        assert ian.pdf_rate(CFG1, 0.0) == 0.0
        np.testing.assert_array_equal(ian.pdf_rate(CFG1, np.array([-1.0, 0.0])), [0.0, 0.0])

    @pytest.mark.parametrize("cfg", NORMALIZATION_CFGS)
    def test_normalization(self, cfg):
        assert pdf_mass(lambda x: ian.pdf_rate(cfg, x)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("cfg", NORMALIZATION_CFGS)
    def test_change_of_variables(self, cfg):
        # rate pdf must equal the SIR pdf pushed through R = log2(1 + sir)
        for x in np.geomspace(0.01, 8.0, 25):
            sir = math.expm1(x * math.log(2.0))
            expected = ian.pdf_sir(cfg, sir) * (sir + 1.0) * math.log(2.0)
            assert ian.pdf_rate(cfg, x) == pytest.approx(expected, rel=1e-10)


class TestCognitiveThroughput:
    def test_pinned_value(self):
        tv = ian.cognitive_throughput(CFG1)
        assert tv.value == pytest.approx(C_IAN_AT_INV_PI, rel=1e-9)

    def test_mean_rate_pinned(self):
        got = ian._mean_rate(CFG1, *ian._mixture(CFG1, DecodingRule.IAN))
        assert got == pytest.approx(MEAN_RATE_MU1_A4, rel=1e-9)

    @pytest.mark.parametrize("mu,alpha,ref", SMALL_MU_MEAN_RATES)
    def test_mean_rate_small_mu(self, mu, alpha, ref):
        cfg = NetworkConfig(mu / math.pi, 1.0, alpha)
        got = ian._mean_rate(cfg, *ian._mixture(cfg, DecodingRule.IAN))
        assert got == pytest.approx(ref, rel=1e-9)

    def test_vanishes_with_density(self):
        assert ian.cognitive_throughput(NetworkConfig(1e-12, 1.0, 4.0)).value < 1e-9

    def test_bound_sandwich(self):
        for lam in np.geomspace(0.05, 5.0, 6):
            cfg = NetworkConfig(lam, 1.0, 4.0)
            c = ian.cognitive_throughput(cfg).value
            assert ian.upper_bound(cfg).value >= c - 1e-9
            for y in (0.1, 1.0, 5.0):
                assert ian.lower_bound(cfg, y).value <= c + 1e-9


class TestBounds:
    def test_lower_direct_substitution(self):
        assert ian.lower_bound(CFG1, 1.0).value == pytest.approx(1.0 / (math.e * math.pi), rel=1e-14)

    def test_lower_vanishes(self):
        assert ian.lower_bound(CFG1, 1e-12).value < 1e-11
        assert ian.lower_bound(CFG1, math.inf).value == 0.0

    @pytest.mark.parametrize("y,want", [(1025.0, 1.37640827877701e-15),
                                        (1100.0, 1.47594003142716e-54)])
    def test_lower_past_double_range_of_sir(self, y, want):
        # the SIR 2**y - 1 overflows a double; reference from mpmath at 50 digits
        cfg = NetworkConfig(1e-9 / math.pi, 1.0, 60.0)
        assert ian.lower_bound(cfg, y).value == pytest.approx(want, rel=1e-12, abs=0)

    def test_lower_with_sir_root_past_e700(self):
        # sir^(2/alpha) = 2^1010 is past e^700 but mu * 2^1010 = 0.11: the
        # success probability is 0.896, not 0
        cfg, y = NetworkConfig(1e-305 / math.pi, 1.0, 4.0), 2020.0
        want = math.exp(math.log(cfg.lam) + math.log(y) - cfg.mu * 2.0 ** (y / 2.0))
        assert ian.lower_bound(cfg, y).value == pytest.approx(want, rel=1e-12, abs=0)
        assert want / cfg.lam == pytest.approx(1810.087, rel=1e-6)

    def test_lower_rejects_nonpositive(self):
        # one message for both rules, naming the rate, the share and the edge
        for y in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError,
                               match=rf"^rate anchor {y} must exceed the support edge 0\.0 of k = 1$"):
                ian.lower_bound(CFG1, y)

    def test_upper_direct_substitution(self):
        assert ian.upper_bound(CFG1).value == pytest.approx(math.log2(3.0) / math.pi, rel=1e-14)

    def test_upper_meets_asymptote(self):
        cfg = NetworkConfig(1000.0, 1.0, 4.0)
        assert ian.upper_bound(cfg).value / ian.asymptote(cfg).value == pytest.approx(1.0, abs=1e-4)


class TestAsymptote:
    def test_exponent(self):
        a, b = ian.asymptote(NetworkConfig(10.0, 1.0, 4.0)), ian.asymptote(NetworkConfig(100.0, 1.0, 4.0))
        assert a.value / b.value == pytest.approx(10.0, rel=1e-12)

    def test_past_the_double_range_is_the_library_error(self):
        # lam = 3.2e190 and E[sir] = 5e302 at alpha = 60, mu = 1e-9: the
        # product is past the double range, which math would raise as OverflowError
        cfg = NetworkConfig(1e-9 / math.pi / 1e-200, 1e-100, 60.0)
        with pytest.raises(ArithmeticError, match="finite") as info:
            ian.asymptote(cfg)
        assert not isinstance(info.value, OverflowError)

    def test_convergence_of_rescaled_throughput(self):
        vals = [
            ian.cognitive_throughput(NetworkConfig(lam, 1.0, 4.0)).value * lam
            for lam in (10.0, 30.0, 100.0)
        ]
        assert vals[1] / vals[0] == pytest.approx(1.0, abs=0.05)
        assert vals[2] / vals[1] == pytest.approx(1.0, abs=0.05)

    def test_limiting_constant(self):
        lam = 100.0
        rescaled = ian.cognitive_throughput(NetworkConfig(lam, 1.0, 4.0)).value * lam
        assert rescaled == pytest.approx(ASYMPTOTE_CONST_A4_D1, rel=1e-3)


class TestOptimalDensity:
    def test_pinned_root(self):
        lam_star, tv = ian.optimal_density(1.0, 4.0)
        assert lam_star == pytest.approx(LAM_STAR_A4_D1, rel=1e-6)
        assert tv.value == pytest.approx(0.31956676989099303, rel=1e-8)

    def test_agrees_with_golden_section(self):
        lam_star, _ = ian.optimal_density(1.0, 4.0)
        t, _ = maximize_unimodal(
            lambda t: ian.cognitive_throughput(NetworkConfig(math.exp(t), 1.0, 4.0)).value,
            (math.log(0.01), math.log(10.0)),
            tol=1e-7,
        )
        assert lam_star == pytest.approx(math.exp(t), rel=1e-3)

    def test_scaling_in_link_distance(self):
        # all distance dependence enters through lam * d^2
        lam_1, _ = ian.optimal_density(1.0, 4.0)
        lam_2, _ = ian.optimal_density(2.0, 4.0)
        assert lam_2 == pytest.approx(lam_1 / 4.0, rel=1e-6)

    def test_local_maximality(self):
        lam_star, tv = ian.optimal_density(1.0, 4.0)
        for bump in (0.9, 1.1):
            nearby = ian.cognitive_throughput(NetworkConfig(lam_star * bump, 1.0, 4.0)).value
            assert tv.value >= nearby

    @pytest.mark.parametrize("alpha", [20.0, 40.0, 60.0])
    def test_steep_path_loss_converges(self, alpha):
        # the residual integrals have error bounds near 1e-8 of their values
        # (1.56e-7 on 14.43 at alpha = 20); they must converge, not raise
        lam_star, tv = ian.optimal_density(1.0, alpha)
        t, _ = maximize_unimodal(
            lambda t: ian.cognitive_throughput(NetworkConfig(math.exp(t), 1.0, alpha)).value,
            (math.log(1e-3), math.log(10.0)),
            tol=1e-9,
        )
        assert lam_star == pytest.approx(math.exp(t), rel=1e-5)
        for bump in (0.9, 1.1):
            nearby = ian.cognitive_throughput(NetworkConfig(lam_star * bump, 1.0, alpha)).value
            assert tv.value >= nearby
        if alpha == 20.0:
            assert lam_star == pytest.approx(0.1412, abs=5e-5)

    def test_several_sign_changes_raise(self, monkeypatch):
        # sin(log(mu/pi) + 1/2) crosses zero at mu = pi*e^(j*pi - 1/2),
        # j = -4..2, on the bracket pi*[1e-6, 1e3], and at no grid point; no
        # real residual has shown more than one
        monkeypatch.setattr(ian, "_stationarity_residual",
                            lambda mu, alpha: math.sin(math.log(mu / math.pi) + 0.5))
        with pytest.raises(ArithmeticError, match="changes sign 7 times"):
            ian.optimal_density(1.0, 4.0)

    @pytest.mark.parametrize("d,alpha", [(0.0, 4.0), (1.0, 2.0), (1.0, math.inf),
                                         (math.inf, 4.0), (1e-200, 4.0), (1e200, 4.0),
                                         (1e160, 4.0), (1e154, 2.05)])
    def test_rejects_bad_parameters(self, d, alpha):
        # lam* = mu*/(pi*d^2) overflows at d = 1e-200, underflows at 1e200 and
        # is subnormal at 1e160; at (1e154, 2.05) lam* is normal but
        # lam* * E[R], with E[R] = 0.036, is not
        with pytest.raises(ValueError):
            ian.optimal_density(d, alpha)

    @pytest.mark.parametrize("d", [1e-3, 10.0, 1e3, 1e4])
    def test_same_mu_at_every_distance(self, d):
        # the root is found in mu, so lam* * d^2 keeps its digits at any d
        lam_1, tv_1 = ian.optimal_density(1.0, 4.0)
        lam_d, tv_d = ian.optimal_density(d, 4.0)
        assert lam_d * d * d == pytest.approx(lam_1, rel=1e-12, abs=0.0)
        assert tv_d.value * d * d == pytest.approx(tv_1.value, rel=1e-12, abs=0.0)
