import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import brentq

from pppt import fixed_rate
from pppt.model import DecodingRule, NetworkConfig
from pppt.numerics import (
    BracketError,
    QuadratureError,
    QuadratureSpec,
    SeriesTruncation,
    _series_cap,
    find_root,
    integrate,
    truncated_poisson_weights,
)

from golden_section import maximize_unimodal

# Reference values computed with 40-digit arithmetic (mpmath 1.3), frozen.
GAMMA_REFS = [
    (0.5, 1.7724538509055160273),
    (1.5, 0.88622692545275801365),
    (2.0, 1.0),
    (3.0, 2.0),
    (4.0, 6.0),
    (5.5, 52.342777784553520181),
    (7.25, 1155.3810139199896872),
    (10.0, 362880.0),
]
UPPER_GAMMA_REFS = [
    (0.5, 0.25, 0.84989183807993112979),
    (1.5, 2.5, 0.15225125499165762764),
    (2.0, 1.0, 0.73575888234288464319),
    (3.0, 1.0, 1.839397205857211608),
    (3.0, 10.0, 0.0055387914310231518873),
    (4.0, 50.0, 2.5614955230869606509e-17),
    (2.5, 300.0, 2.6884809777468196255e-127),
    (3.0, 700.0, 4.8450647729566389185e-299),
]
# (h, lo, hi) with one sign change: secant, inverse quadratic and bisection
# steps, a root at a zero of h, and values so small that the interpolation's
# difference quotients underflow
SMOOTH_ROOTS = [
    (lambda x: x - 1.0, 0.0, 2.0),
    (lambda x: x * x - 2.0, 1.0, 2.0),
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.tanh(3.0 * (x - 0.7)), 0.0, 2.0),
    (lambda x: math.cos(x), 0.0, 3.0),
    (lambda x: math.exp(x) - 2.0, -5.0, 5.0),
    (lambda x: math.atan(x - math.pi), -10.0, 100.0),
    (lambda x: 1e300 * (x - 0.25), 0.0, 1.0),
    (lambda x: 1e-200 * (x**3 - 2.0), 0.0, 4.0),
]


class TestSpecs:
    def test_quadrature_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            SeriesTruncation(mass_tol=0.0)
        with pytest.raises(ValueError):
            SeriesTruncation(mass_tol=1.0)

    def test_default_cap_policy(self):
        assert _series_cap(0.0) == 20
        assert _series_cap(100.0) == 100 + 120 + 20


class TestIntegrate:
    def test_exponential(self):
        assert integrate(lambda x: np.exp(-x)) == pytest.approx(1.0, rel=1e-8)

    def test_endpoint_singularity(self):
        # x^-1/2 at 0: the exp-sinh nodes cluster there
        value = integrate(lambda x: x**-0.5 * np.exp(-x))
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-6)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_nearest_distance_normalization(self, lam):
        f = lambda x: 2.0 * lam * math.pi * x * np.exp(-lam * math.pi * x * x)
        assert integrate(f) == pytest.approx(1.0, rel=1e-8)

    def test_failure_carries_estimate(self):
        # 40 nodes allow the first two levels (17 + 16) and not the third
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-14, max_subdivisions=40)
        f = lambda x: np.cos(50.0 / (x + 1e-3)) / (x + 1e-3) ** 2
        with pytest.raises(QuadratureError) as err:
            integrate(f, spec)
        assert math.isfinite(err.value.estimate)
        assert err.value.error_bound > 0

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_sum_carries_estimate(self, value):
        with pytest.raises(QuadratureError, match="non-finite") as err:
            integrate(lambda x: np.full(x.shape, value))
        np.testing.assert_equal(err.value.estimate, value)  # nan equals nan here

    def test_zero_integral_needs_abs_tol(self):
        # (-10 - 10x + 10x^2) e^-x integrates to exactly 0: no level can meet
        # rel_tol * |I|, and the default abs_tol of 1e-300 is below the noise
        f = lambda x: (-10.0 - 10.0 * x + 10.0 * x * x) * np.exp(-x)
        with pytest.raises(QuadratureError):
            integrate(f)
        assert abs(integrate(f, QuadratureSpec(abs_tol=1e-12))) <= 1e-12

    @given(
        c=st.tuples(*[st.floats(-10, 10) for _ in range(3)]),
        d=st.tuples(*[st.floats(-10, 10) for _ in range(3)]),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity_on_damped_polynomials(self, c, d):
        # integral of (c0 + c1 x + c2 x^2) e^-x over [0, inf) is c0 + c1 + 2 c2,
        # which is 0 for some draws: an absolute floor lets those converge
        spec = QuadratureSpec(abs_tol=1e-12)
        f = lambda x: (c[0] + c[1] * x + c[2] * x * x) * np.exp(-x)
        g = lambda x: (d[0] + d[1] * x + d[2] * x * x) * np.exp(-x)
        bi = integrate(lambda x: f(x) + g(x), spec)
        fi = integrate(f, spec)
        gi = integrate(g, spec)
        scale = 1.0 + abs(fi) + abs(gi)
        assert abs(bi - fi - gi) <= 1e-7 * scale
        assert abs(fi - (c[0] + c[1] + 2 * c[2])) <= 1e-7 * scale


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, (0.0, 2.0)) == pytest.approx(1.0, abs=1e-10)

    def test_sqrt_two(self):
        root = find_root(lambda x: x * x - 2.0, (1.0, 2.0))
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 1e-200])
    def test_bracket_must_change_sign(self, scale):
        # at 1e-200 the product of the end values underflows to 0
        with pytest.raises(BracketError):
            find_root(lambda x: scale * (x * x + 1.0), (-1.0, 1.0))

    @pytest.mark.parametrize("bracket", [(1.0, 3.0), (-1.0, 1.0)])
    def test_root_at_an_end(self, bracket):
        assert find_root(lambda x: x - 1.0, bracket) == 1.0

    @pytest.mark.parametrize("bracket", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.5)])
    def test_nan_at_an_end_is_no_bracket(self, bracket):
        # h(0) is NaN; h(0.5) = 0 does not rescue the bracket
        h = lambda x: math.nan if x == 0.0 else x - 0.5
        with pytest.raises(BracketError):
            find_root(h, bracket)

    def test_nan_inside_raises(self):
        # the first secant step lands at 0.5, where h is NaN
        h = lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5
        with pytest.raises(ArithmeticError, match="NaN"):
            find_root(h, (0.0, 1.0))

    @pytest.mark.parametrize("h,lo,hi", SMOOTH_ROOTS)
    def test_matches_brentq(self, h, lo, hi):
        assert find_root(h, (lo, hi)) == brentq(h, lo, hi, xtol=1e-12)

    @pytest.mark.parametrize("rule", list(DecodingRule))
    @pytest.mark.parametrize("alpha", [2.05, 4.0, 20.0, 60.0])
    def test_thresholds_match_brentq(self, alpha, rule, monkeypatch):
        # every threshold solve of highest_throughput, the ill-posed
        # alpha = 20, lam >= 39 cells included: the analytic benchmark's
        # fixed-rate references hold these roots
        pairs = []

        def both(h, bracket):
            root = find_root(h, bracket)
            pairs.append((root, brentq(h, *bracket, xtol=1e-12)))
            return root

        monkeypatch.setattr(fixed_rate, "find_root", both)
        for lam in (1e-3, 0.1, 1.0, 39.0, 412.0, 1e3):
            fixed_rate.highest_throughput(NetworkConfig(lam, 1.0, alpha), rule)
        assert pairs
        for root, ref in pairs:
            assert root == ref

    def test_residual_bound(self):
        h = lambda x: math.tanh(3.0 * (x - 0.7))
        root = find_root(h, (0.0, 2.0))
        assert abs(root - 0.7) < 1e-9


class TestMaximizeUnimodal:
    # the golden-section reference that tests of ian.optimal_density use
    def test_parabola(self):
        x, v = maximize_unimodal(lambda x: -((x - 3.0) ** 2), (0.0, 10.0), tol=1e-8)
        assert x == pytest.approx(3.0, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_damped_ramp(self):
        x, v = maximize_unimodal(lambda x: x * math.exp(-x), (0.0, 10.0), tol=1e-9)
        assert x == pytest.approx(1.0, abs=1e-7)
        assert v == pytest.approx(math.exp(-1.0), rel=1e-12)


class TestPoissonWeights:
    def test_pmf_at_zero(self):
        assert truncated_poisson_weights(1.0)[0] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_degenerate(self):
        # the smallest mean of the documented domain keeps two terms
        w = truncated_poisson_weights(1e-9)
        np.testing.assert_allclose(w, [math.exp(-1e-9), 1e-9 * math.exp(-1e-9)], rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            truncated_poisson_weights(-1.0)

    def test_log_space_large_mean(self):
        w = truncated_poisson_weights(1e4)
        assert w[10_000] == pytest.approx(float(stats.poisson.pmf(10_000, 1e4)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mean", [0.5, 5.0, 50.0])
    def test_cumulative_mass(self, mean):
        w = truncated_poisson_weights(mean)
        assert w.sum() >= 1.0 - 1e-10
        assert w.sum() <= 1.0 + 1e-12

    @pytest.mark.parametrize("mean", [2338.5396861201048, 10000.3])
    def test_mass_to_the_last_digits(self, mean):
        # Loader's deviance must cancel mean - m before it meets m*log1p(...):
        # rounded at the scale of mean, every weight is 1.4e-13 (5.7e-13) low
        # and a 1e-14 series runs to the cap
        w = truncated_poisson_weights(mean, SeriesTruncation(1e-14))
        assert len(w) < _series_cap(mean) + 1
        assert math.fsum(w) == pytest.approx(1.0, rel=0.0, abs=2e-14)

    @pytest.mark.parametrize("mean", [1.0, 5.5, 15.2, 29.5, 30.0, 31.4, 35.0])
    def test_mode_weight_to_the_last_digits(self, mean):
        # the weight at m = floor(mean), on either side of the switch from
        # the stirlerr table to its series at m = 30, against
        # exp(m*ln(mean) - mean - ln m!) at 40 digits
        m = int(mean)
        with localcontext() as ctx:
            ctx.prec = 40
            mu = Decimal(mean)
            want = (m * mu.ln() - mu - sum(Decimal(i).ln() for i in range(2, m + 1))).exp()
        assert truncated_poisson_weights(mean)[m] == pytest.approx(float(want), rel=1e-15, abs=0.0)

    def test_degenerate_weights(self):
        np.testing.assert_array_equal(truncated_poisson_weights(0.0), [1.0])

    @given(mean=st.floats(1e-6, 1e4))
    @settings(max_examples=60, deadline=None)
    def test_mass_property(self, mean):
        w = truncated_poisson_weights(mean)
        assert 1.0 - 1e-10 <= w.sum() <= 1.0 + 1e-12
        assert np.all(w >= 0)


class TestSpecialFunctions:
    """The special functions behind the closed forms, as ian and opt
    evaluate them: Gamma(1 + alpha/2) through math.lgamma, and the upper
    incomplete gamma integral Gamma(z, a) = e^-a int (a+t)^(z-1) e^-t dt as
    the shifted-exponential quadrature of ian._log_mean_sir at edge 1, deep
    into the tail it reaches."""

    @pytest.mark.parametrize("z,ref", GAMMA_REFS)
    def test_gamma(self, z, ref):
        assert math.gamma(z) == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert math.exp(math.lgamma(z)) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("z,a,ref", UPPER_GAMMA_REFS)
    def test_upper_incomplete_gamma(self, z, a, ref):
        # e^-a is taken in log space: at a = 700 the result is 4.8e-299
        shifted = integrate(lambda t: (a + t) ** (z - 1.0) * np.exp(-t))
        value = math.exp(math.log(shifted) - a)
        assert value == pytest.approx(ref, rel=1e-12, abs=0.0)
