import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from pppt import ian, opt
from pppt.ian import _pdf_rate
from pppt.model import NetworkConfig
from pppt.numerics import SeriesTruncation, truncated_poisson_weights

# Frozen from a term-by-term Riemann-sum oracle cross-checked by a direct
# 4e6-draw Monte Carlo of the model law and by 30-digit mpmath quadrature.
C_OPT_AT_INV_PI = 0.52184369656323789

CFG1 = NetworkConfig(1 / math.pi, 1.0, 4.0)  # mu = 1
NORMALIZATION_CFGS = [
    NetworkConfig(0.1, 1.0, 3.0),
    NetworkConfig(1.0, 1.0, 4.0),
    NetworkConfig(2.0, 0.5, 6.0),
]
MIXTURE_ALPHAS = [2.05, 2.5, 4.0, 6.0, 20.0, 60.0]
MOMENT_CASES = ([(mu, 4.0) for mu in (0.5, 5.0, 50.0, 300.0, 599.0)]
                + [(mu, alpha) for alpha in (2.05, 20.0) for mu in (0.5, 50.0, 599.0)])


def mean_rate_term_sum(cfg, truncation=None):
    """Sum of w_i * E[R | i], one quadrature per term, as the mixture reference.

    Terms whose weight is below 1e-17 of the largest are skipped: their
    share of the sum is far below the 1e-8 tolerance, and skipping them keeps
    the reference cheap at large mu.
    """
    w = truncated_poisson_weights(cfg.mu, truncation)
    keep = w >= 1e-17 * w.max()
    return sum(w[i] * opt.conditional_mean_rate(cfg, i) for i in np.nonzero(keep)[0])


def lower_bound_direct(cfg, y):
    """Lower-bound sum with b = expm1((1+i)*y*ln2)/(1+i) taken directly.

    Raises OverflowError once (1+i)*y*ln2 exceeds ~709.
    """
    w = truncated_poisson_weights(cfg.mu)
    e = 2.0 / cfg.alpha
    total = 0.0
    for i, wi in enumerate(w):
        b = math.expm1((1 + i) * y * math.log(2.0)) / (1 + i)
        total += wi * y * math.exp(-cfg.mu * (b**e - 1.0))
    return cfg.lam * total


class TestTruncatedSirPdf:
    def test_zero_at_and_below_one(self):
        assert opt.pdf_sir(CFG1, 0.5) == 0.0
        assert opt.pdf_sir(CFG1, 1.0) == 0.0

    def test_support_edge_value(self):
        # at mu = 1, alpha = 4 the density steps up to 1/2 just above 1
        assert opt.pdf_sir(CFG1, 1.0 + 1e-12) == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("cfg", NORMALIZATION_CFGS)
    def test_normalization(self, cfg):
        mass, _ = quad(lambda x: opt.pdf_sir(cfg, x), 1.0, np.inf, limit=500)
        assert mass == pytest.approx(1.0, abs=1e-8)


class TestConditionalRatePdf:
    def test_direct_substitution(self):
        # n = 0, mu = 1, alpha = 4, x = 2: the SIR matching the rate is 3
        expected = math.log(4.0) * 3.0**-0.5 * math.exp(-(math.sqrt(3.0) - 1.0))
        assert opt.pdf_rate_conditional(CFG1, 0, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_support(self):
        edge = opt.conditional_support_edge(1)
        assert edge == pytest.approx(math.log2(3.0) / 2.0, rel=1e-15)
        assert opt.pdf_rate_conditional(CFG1, 1, 0.79) == 0.0
        assert opt.pdf_rate_conditional(CFG1, 1, edge) == 0.0
        assert opt.pdf_rate_conditional(CFG1, 1, edge + 1e-9) > 0.0

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            opt.pdf_rate_conditional(CFG1, -1, 1.0)

    @pytest.mark.parametrize("n", [-1, 1.5, 2.0])
    def test_every_count_argument_checked(self, n):
        with pytest.raises(ValueError, match="joint-decode count"):
            opt.pdf_rate_conditional(CFG1, n, 1.0)
        with pytest.raises(ValueError, match="joint-decode count"):
            opt.conditional_support_edge(n)
        with pytest.raises(ValueError, match="joint-decode count"):
            opt.conditional_mean_rate(CFG1, n)

    def test_numpy_integer_count(self):
        want = opt.pdf_rate_conditional(CFG1, 1, 2.0)
        assert opt.pdf_rate_conditional(CFG1, np.int64(1), 2.0) == want

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_normalization(self, n):
        edge = opt.conditional_support_edge(n)
        f = lambda x: opt.pdf_rate_conditional(CFG1, n, x)
        mass = quad(f, edge, edge + 5.0, limit=500)[0] + quad(f, edge + 5.0, np.inf, limit=500)[0]
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_change_of_variables(self, n):
        # conditional rate pdf = truncated SIR pdf through (1+n) R = log2(1 + (1+n) sir)
        k = 1 + n
        for x in np.linspace(opt.conditional_support_edge(n) + 0.05, 6.0, 20):
            sir = math.expm1(k * x * math.log(2.0)) / k
            jac = (1.0 + k * sir) * math.log(2.0)
            assert opt.pdf_rate_conditional(CFG1, n, x) == pytest.approx(
                opt.pdf_sir(CFG1, sir) * jac, rel=1e-10)


class TestMixturePdf:
    def test_degenerate_mixture_is_first_conditional(self):
        cfg = NetworkConfig(1e-8, 1.0, 4.0)
        xs = np.linspace(1.05, 5.0, 9)
        np.testing.assert_allclose(
            opt.pdf_rate(cfg, xs), opt.pdf_rate_conditional(cfg, 0, xs), rtol=1e-6)

    @pytest.mark.parametrize("lam", [0.1 / math.pi, 1 / math.pi, 5 / math.pi])
    def test_normalization(self, lam):
        cfg = NetworkConfig(lam, 1.0, 4.0)
        w = truncated_poisson_weights(cfg.mu)
        edges = sorted({opt.conditional_support_edge(i) for i in range(len(w))})
        f = lambda x: opt.pdf_rate(cfg, x)
        mass = quad(f, 0.0, 2.0, points=edges, limit=800)[0] + quad(f, 2.0, np.inf, limit=500)[0]
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("lam", [1e-8, 0.1, 1 / math.pi, 5.0, 100.0])
    def test_matches_term_loop(self, lam):
        cfg = NetworkConfig(lam, 1.0, 4.0)
        w = truncated_poisson_weights(cfg.mu)
        xs = np.concatenate([np.linspace(-1.0, 8.0, 181), [opt.conditional_support_edge(1)]])
        loop = sum(wi * np.asarray(opt.pdf_rate_conditional(cfg, i, xs)) for i, wi in enumerate(w))
        np.testing.assert_allclose(opt.pdf_rate(cfg, xs), loop, rtol=1e-13, atol=0.0)
        grid = xs[2:].reshape(4, 45)
        np.testing.assert_array_equal(opt.pdf_rate(cfg, grid), opt.pdf_rate(cfg, xs[2:]).reshape(4, 45))
        assert isinstance(opt.pdf_rate(cfg, 2.0), float)

    def test_memory_bounded_at_large_mu(self):
        # mu = 1e4: 11220 terms; one (terms x points) array of 200 points
        # would peak near 116 MiB (numpy reports its buffers to tracemalloc)
        cfg = NetworkConfig(1e4 / math.pi, 1.0, 4.0)
        xs = np.geomspace(1e-3, 2e-3, 200)  # the rates of about 1e4 messages
        tracemalloc.start()
        try:
            got = opt.pdf_rate(cfg, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        w = truncated_poisson_weights(cfg.mu)
        k = 1.0 + np.arange(len(w))
        want = np.array([_pdf_rate(cfg, k, w, 1.0, x) for x in xs])
        assert np.count_nonzero(want) > 100
        # every point sums all of its terms, which are >= 0: two summation
        # orders agree to (terms) * eps relative
        np.testing.assert_allclose(got, want, rtol=len(w) * np.finfo(float).eps, atol=0.0)

    def test_mixture_below_largest_component(self):
        w = truncated_poisson_weights(CFG1.mu)
        for x in np.linspace(0.2, 4.0, 12):
            mix = opt.pdf_rate(CFG1, x)
            components = [opt.pdf_rate_conditional(CFG1, i, x) for i in range(len(w))]
            assert mix <= max(components) + 1e-12


class TestCognitiveThroughput:
    def test_pinned_value(self):
        tv = opt.cognitive_throughput(CFG1)
        assert tv.value == pytest.approx(C_OPT_AT_INV_PI, rel=1e-8)

    def test_vanishes_with_density(self):
        assert opt.cognitive_throughput(NetworkConfig(1e-12, 1.0, 4.0)).value < 1e-9

    def test_dominates_interference_as_noise(self):
        for lam in (0.05, 1 / math.pi, 2.0):
            cfg = NetworkConfig(lam, 1.0, 4.0)
            assert opt.cognitive_throughput(cfg).value >= ian.cognitive_throughput(cfg).value

    def test_nondecreasing_in_density(self):
        vals = [
            opt.cognitive_throughput(NetworkConfig(lam, 1.0, 4.0)).value
            for lam in np.geomspace(0.01, 10.0, 8)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha", MIXTURE_ALPHAS)
    def test_mixture_matches_term_sum(self, alpha):
        for mu in np.geomspace(1e-6, 5e3, 9):
            cfg = NetworkConfig(mu / math.pi, 1.0, alpha)
            # stopping at half the mass cuts the reference's terms near the
            # mean; both sides share the cut
            cut = SeriesTruncation(mass_tol=0.5) if mu > 100 else None
            got = opt.cognitive_throughput(cfg, truncation=cut).value / cfg.lam
            assert got == pytest.approx(mean_rate_term_sum(cfg, cut), rel=1e-8), mu

    def test_split_semi_infinite_range(self):
        # mu = pi*1.5118, alpha = 4: a 21-point adaptive panel over the
        # whole range claims 1.6e-9 here and is 3.5e-7 off
        cfg = NetworkConfig(1.5117750706156614, 1.0, 4.0)
        ref = cfg.lam * mean_rate_term_sum(cfg)
        assert opt.cognitive_throughput(cfg).value == pytest.approx(ref, rel=1e-9)

    def test_conditional_mean_above_support_edge(self):
        for n in (0, 2, 7):
            assert opt.conditional_mean_rate(CFG1, n) > opt.conditional_support_edge(n)


class TestLowerBound:
    def test_constant_schedule_below_throughput(self):
        for lam in (0.05, 1 / math.pi, 2.0):
            cfg = NetworkConfig(lam, 1.0, 4.0)
            assert opt.lower_bound(cfg, 2.0).value <= opt.cognitive_throughput(cfg).value + 1e-9

    def test_schedule_below_support_rejected(self):
        with pytest.raises(ValueError):
            opt.lower_bound(CFG1, 0.5)  # below the single-link edge of 1
        with pytest.raises(ValueError):
            opt.lower_bound(CFG1, lambda i: opt.conditional_support_edge(i))
        # the first anchor at or below its edge is named with its share k = 1+i
        with pytest.raises(ValueError,
                           match=r"^rate anchor 1\.0 must exceed the support edge 1\.0 of k = 1$"):
            opt.lower_bound(CFG1, 1.0)
        edge = opt.conditional_support_edge(2)  # log2(4)/3
        with pytest.raises(ValueError, match=rf"^rate anchor {edge} must exceed the support edge "
                                             rf"{edge} of k = 3$"):
            opt.lower_bound(CFG1, lambda i: edge if i == 2 else 2.0)

    @pytest.mark.parametrize("alpha", MIXTURE_ALPHAS)
    def test_log_space_matches_direct_formula(self, alpha):
        # the direct sum overflows past (1+i)*y*ln2 = 709, i.e. mu >~ 260 at y = 2
        checked = 0
        for mu in np.geomspace(1e-6, 1e4, 21):
            cfg = NetworkConfig(mu / math.pi, 1.0, alpha)
            for y in (1.5, 2.0, 3.0):
                v = opt.lower_bound(cfg, y).value
                assert math.isfinite(v) and v >= 0.0
                try:
                    ref = lower_bound_direct(cfg, y)
                except OverflowError:
                    continue
                assert v == pytest.approx(ref, rel=1e-12, abs=0.0)
                checked += 1
        assert checked >= 30

    def test_callable_schedule(self):
        v = opt.lower_bound(CFG1, lambda i: opt.conditional_support_edge(i) + 0.5).value
        assert 0.0 < v <= opt.cognitive_throughput(CFG1).value + 1e-9


class TestUpperBound:
    def test_truncated_sir_mean_closed_form(self):
        # at mu = 1, alpha = 4 the mean is exactly 5
        assert ian._log_mean_sir(CFG1, 1.0) == pytest.approx(math.log(5.0), abs=1e-12)

    # cases at alpha = 4 keep the bare mu id
    @pytest.mark.parametrize("mu,alpha", MOMENT_CASES,
                             ids=[f"{mu}" if a == 4.0 else f"{mu}-{a}" for mu, a in MOMENT_CASES])
    def test_moment_against_direct_quadrature(self, mu, alpha):
        cfg = NetworkConfig(mu / math.pi, 1.0, alpha)
        ref, _ = quad(lambda t: (1.0 + t / mu) ** (alpha / 2.0) * math.exp(-t), 0.0, np.inf,
                      epsabs=0.0, epsrel=1e-13, limit=500)
        assert ian._log_mean_sir(cfg, 1.0) == pytest.approx(math.log(ref), abs=1e-9)

    def test_moment_large_mu_path(self):
        cfg = NetworkConfig(1000.0, 1.0, 4.0)  # mu ~ 3142, where e^mu overflows
        log_m = ian._log_mean_sir(cfg, 1.0)
        assert log_m == pytest.approx(math.log(1.0 + 2.0 / cfg.mu), abs=1e-3)
        assert log_m > 0.0

    def test_first_term_direct_substitution(self):
        # weight e^-1 times log2(1 + 5) dominates the series at mu = 1
        w = truncated_poisson_weights(CFG1.mu)
        i = np.arange(len(w))
        series = float(np.sum(w / (1 + i) * np.log2(1.0 + (1 + i) * 5.0)))
        assert opt.upper_bound(CFG1).value == pytest.approx(series / math.pi, rel=1e-12)
        assert w[0] * math.log2(6.0) == pytest.approx(math.exp(-1.0) * math.log2(6.0), rel=1e-12)

    def test_dominates_throughput(self):
        for lam in (0.05, 1 / math.pi, 2.0):
            cfg = NetworkConfig(lam, 1.0, 4.0)
            assert opt.upper_bound(cfg).value >= opt.cognitive_throughput(cfg).value - 1e-9

    def test_ratio_tightens_with_density(self):
        ratios = [
            opt.cognitive_throughput(NetworkConfig(lam, 1.0, 4.0)).value
            / opt.upper_bound(NetworkConfig(lam, 1.0, 4.0)).value
            for lam in (10.0, 100.0)
        ]
        assert ratios[0] <= ratios[1] <= 1.0 + 1e-9


class TestTruncationControl:
    def test_coarse_mass_tol_respected(self):
        short = opt.cognitive_throughput(CFG1, truncation=SeriesTruncation(mass_tol=0.5)).value
        full = opt.cognitive_throughput(CFG1).value
        assert short < full  # dropped tail mass can only lower the series
