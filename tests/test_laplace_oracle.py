"""The window kernel against the exact throughput of what it samples.

Hamdi's lemma (IEEE Trans. Commun. 58(2), 2010) turns a mean log-ratio into
one integral of Laplace transforms: for X, I >= 0,

    E[ln(1 + X/I)] = int_0^inf (E[e^{-zI}] - E[e^{-z(X + I)}]) / z dz.

Without fading, the Laplace functional of a PPP of density lam over the disc
r < R is exp(-lam*G(R)) with

    G(R) = 2*pi * int_0^R (1 - e^{-z r^-alpha}) r dr
         = pi R^2 (1 - e^{-z R^-alpha}) + pi z^delta Gamma(1 - delta, z R^-alpha),

delta = 2/alpha, and G(inf) = pi z^delta Gamma(1 - delta) for the whole
plane (Haenggi & Ganti, Interference in Large Wireless Networks, FnT 2009,
sec. 3).  The kernel samples the window r < W and adds the Campbell mean m
of the plane beyond it, so its interference has the transform
L_W(z) * e^{-zm}; the helper below integrates that exactly, and the exact
plane with W = inf.  The interference is at least m > 0, so every rate is
finite.
"""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc

from pppt import ian, opt, simulation
from pppt.model import DecodingRule, NetworkConfig
from pppt.simulation import _collect_stats, _rates_from_stats

SIM_GRID = np.geomspace(0.01, 10.0, 10)   # the tightness-study grid of criterion 9
ALPHAS = (2.05, 2.5, 3.0, 4.0, 6.0)
RULES = {"ian": DecodingRule.IAN, "opt": DecodingRule.OPT}
CELLS = [(float(lam), alpha) for alpha in ALPHAS for lam in SIM_GRID]
CELL_IDS = [f"lam={lam:.3g}-alpha={alpha:g}" for lam, alpha in CELLS]


def disc_exponent(z: float, r: float, alpha: float) -> float:
    """G(r): the Laplace exponent per unit density of the disc of radius r,
    the whole plane at r = inf."""
    delta = 2.0 / alpha
    if r == math.inf:
        return math.pi * z ** delta * math.gamma(1.0 - delta)
    x = z * r ** -alpha
    return math.pi * (-r * r * math.expm1(-x)
                      + z ** delta * math.gamma(1.0 - delta) * gammaincc(1.0 - delta, x))


def exact_throughput(cfg: NetworkConfig, column: str, window: float = math.inf,
                     knee_shift: float = 0.0) -> float:
    """lam * E[rate] when the interferers within ``window`` are exact and the
    plane beyond it is replaced by its mean; the exact plane by default.
    ``knee_shift`` moves the quadrature's knee break (in log z) to check
    that the value does not depend on where the panels meet."""
    lam, d, alpha = cfg.lam, cfg.d, cfg.alpha
    sig = d ** -alpha
    mu = lam * math.pi * d * d
    far = 2.0 * math.pi * lam * window ** (2.0 - alpha) / (alpha - 2.0)

    def weight(z):
        """z times the integrand of Hamdi's lemma, Poisson sum closed."""
        g_window = disc_exponent(z, window, alpha)
        if column == "ian":
            return math.exp(-lam * g_window - z * far) * -math.expm1(-z * sig)
        g_d = disc_exponent(z, d, alpha)
        noise = math.exp(-lam * (g_window - g_d) - z * far)
        # each decoded power counted as the link's own:
        # sum_n w_n (1 - e^{-z(1+n)S}) / (1+n)
        return noise * -math.expm1(-mu * -math.expm1(-z * sig)) / mu

    # in u = log z the weight is one smooth bump, integrated on three panels
    # split at z = 1/S and at its knee, below which it falls like z: the
    # noise rule's whole-plane functional has lam*pi*Gamma(1 - delta)*z^delta
    # = 1 there (z ~ 1e-60 at alpha = 60, mu = 100), the joint rule's ring
    # and decode terms mu*S*z = 1.  Past u = 700 the weight is below
    # e^{-lam*pi*W^2} <= e^{-64*pi} for any window from the default one out
    # to the whole plane
    delta = 2.0 / alpha
    if column == "ian":
        knee = -math.log(lam * math.pi * math.gamma(1.0 - delta)) / delta
    else:
        knee = -math.log(mu * sig)
    lo, hi = sorted((knee + knee_shift, -math.log(sig)))
    f = lambda u: weight(math.exp(u)) if u < 700.0 else 0.0
    panels = [quad(f, a, b, epsabs=0.0, epsrel=1e-10, limit=200)[0]
              for a, b in ((-math.inf, lo), (lo, hi), (hi, math.inf))]
    return lam * math.fsum(panels) / math.log(2.0)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("z,r", [(1e-6, 1.0), (1.0, 1.0), (1.0, 8.0), (1e4, 2.0)])
def test_disc_exponent_closed_form(z, r, alpha):
    direct, _ = quad(lambda t: 2.0 * math.pi * t * -math.expm1(-z * t ** -alpha), 0.0, r,
                     epsabs=0.0, epsrel=1e-12, limit=200)
    assert disc_exponent(z, r, alpha) == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("z,r", [(1.0, 2.0), (1e4, 2.0), (1e-3, 8.0)])
def test_plane_exponent_closed_form(z, r, alpha):
    # the plane beyond r, in x = z*t^-alpha: (2*pi/alpha) z^delta times the
    # integral of x^(-delta-1) (1 - e^-x) over 0 < x < z*r^-alpha
    delta = 2.0 / alpha
    tail, _ = quad(lambda x: -math.expm1(-x) / x if x else 1.0, 0.0, z * r ** -alpha,
                   weight="alg", wvar=(-delta, 0.0), epsabs=0.0, epsrel=1e-12)
    want = 2.0 * math.pi / alpha * z ** delta * tail
    got = disc_exponent(z, math.inf, alpha) - disc_exponent(z, r, alpha)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("lam,alpha", CELLS, ids=CELL_IDS)
def test_kernel_matches_exact_throughput(lam, alpha):
    cfg = NetworkConfig(lam, 1.0, alpha)
    window = simulation.default_window_radius(cfg)
    stats = _collect_stats(cfg, window, seed=11, n_realizations=400)
    for column, rule in RULES.items():
        rates = lam * _rates_from_stats(cfg, stats[rule], "full")
        stderr = np.std(rates, ddof=1) / math.sqrt(len(rates))
        z = (np.mean(rates) - exact_throughput(cfg, column)) / stderr
        assert abs(z) <= 4.0, (column, z)


@pytest.mark.parametrize("lam,alpha", CELLS, ids=CELL_IDS)
def test_ring_mean_bias_is_negligible(lam, alpha):
    # the mean beyond the default window against the exact plane: 2.1e-5
    # relative at alpha = 2.5 and less elsewhere, far below the standard
    # error of any Monte Carlo run the package makes
    cfg = NetworkConfig(lam, 1.0, alpha)
    window = simulation.default_window_radius(cfg)
    for column in RULES:
        assert exact_throughput(cfg, column, window) == pytest.approx(
            exact_throughput(cfg, column), rel=1e-4)


@pytest.mark.parametrize("lam,alpha", CELLS, ids=CELL_IDS)
def test_exact_throughput_below_closest_interferer_closed_forms(lam, alpha):
    # pathwise the full interference is at least the nearest interferer's power
    cfg = NetworkConfig(lam, 1.0, alpha)
    assert exact_throughput(cfg, "ian") < ian.cognitive_throughput(cfg).value
    assert exact_throughput(cfg, "opt") < opt.cognitive_throughput(cfg).value


# past the test grid, where the noise rule's knee lies at z ~ 1e-21 (alpha =
# 20) and 1e-60 (alpha = 60): a quad over z in [0, 1/S] missed it, with
# scipy's roundoff warning, and returned 0.003 of the closed form
@pytest.mark.parametrize("alpha", [20.0, 60.0])
@pytest.mark.parametrize("column", list(RULES))
def test_oracle_converges_past_the_grid(column, alpha):
    cfg = NetworkConfig(100.0 / math.pi, 1.0, alpha)  # mu = 100
    exact = exact_throughput(cfg, column)
    assert exact_throughput(cfg, column, knee_shift=2.0) == pytest.approx(exact, rel=1e-8)
    closed_form = {"ian": ian, "opt": opt}[column].cognitive_throughput(cfg).value
    assert 0.0 < exact < closed_form
