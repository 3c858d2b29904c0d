"""The window kernel against the exact throughput of what it samples.

Hamdi's lemma (IEEE Trans. Commun. 58(2), 2010) turns a mean log-ratio into
one integral of Laplace transforms: for X, I >= 0,

    E[ln(1 + X/I)] = int_0^inf (E[e^{-zI}] - E[e^{-z(X + I)}]) / z dz.

Without fading, the Laplace functional of a PPP of density lam over the ring
rho < r < R is exp(-lam*(G(R) - G(rho))) with

    G(R) = 2*pi * int_0^R (1 - e^{-z r^-alpha}) r dr
         = pi R^2 (1 - e^{-z R^-alpha}) + pi z^delta Gamma(1 - delta, z R^-alpha),

delta = 2/alpha (Haenggi & Ganti, Interference in Large Wireless Networks,
FnT 2009, sec. 3).  The kernel samples the near disc r < R0 and adds the
Campbell mean m of the ring R0 <= r < W, so its interference has the
transform L_near(z) * e^{-zm}; the helper below integrates that exactly.
The interference is at least m > 0, so every rate is finite.
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
ALPHAS = (2.5, 3.0, 4.0, 6.0)
COLUMNS = ("ian", "lower_bound_powers", "exact_powers")
CELLS = [(float(lam), alpha) for alpha in ALPHAS for lam in SIM_GRID]
CELL_IDS = [f"lam={lam:.3g}-alpha={alpha:g}" for lam, alpha in CELLS]


def near_radius(cfg: NetworkConfig, window: float) -> float:
    return min(window, simulation._NEAR_FACTOR * max(cfg.d, 1.0 / math.sqrt(cfg.lam)))


def disc_exponent(z: float, r: float, alpha: float) -> float:
    """G(r): the Laplace exponent per unit density of the disc of radius r."""
    delta = 2.0 / alpha
    x = z * r ** -alpha
    return math.pi * (-r * r * math.expm1(-x)
                      + z ** delta * math.gamma(1.0 - delta) * gammaincc(1.0 - delta, x))


def exact_throughput(cfg: NetworkConfig, column: str, window: float, near: float) -> float:
    """lam * E[rate] when the interferers within ``near`` are exact and the
    ring from there to ``window`` is replaced by its mean."""
    lam, d, alpha = cfg.lam, cfg.d, cfg.alpha
    sig = d ** -alpha
    mu = lam * math.pi * d * d
    ring = 2.0 * math.pi * lam * (near ** (2.0 - alpha) - window ** (2.0 - alpha)) / (alpha - 2.0)

    def weight(z):
        """z times the integrand of Hamdi's lemma, Poisson sum closed."""
        g_near = disc_exponent(z, near, alpha)
        if column == "ian":
            return math.exp(-lam * g_near - z * ring) * -math.expm1(-z * sig)
        g_d = disc_exponent(z, d, alpha)
        noise = math.exp(-lam * (g_near - g_d) - z * ring)
        if column == "lower_bound_powers":
            # sum_n w_n (1 - e^{-z(1+n)S}) / (1+n)
            return noise * -math.expm1(-mu * -math.expm1(-z * sig)) / mu
        # sum_n w_n (1 - e^{-zS} phi^n) / (1+n), phi the transform of one
        # decoded power: r uniform on the disc of radius d
        phi = 1.0 - g_d / (math.pi * d * d)
        tail = math.expm1(mu * phi) / (mu * phi) if phi > 0.0 else 1.0
        return noise * (-math.expm1(-mu) / mu - math.exp(-z * sig - mu) * tail)

    # two panels split at z = 1/S; the upper one in log z, where the
    # Laplace functional decays double-exponentially; past z = e^700 the
    # weight is below e^{-lam*pi*R0^2} <= e^{-64*pi}
    lower, _ = quad(lambda z: weight(z) / z, 0.0, 1.0 / sig, epsabs=0.0, epsrel=1e-10, limit=200)
    upper, _ = quad(lambda u: weight(math.exp(u)) if u < 700.0 else 0.0, math.log(1.0 / sig),
                    math.inf, epsabs=0.0, epsrel=1e-10, limit=200)
    return lam * (lower + upper) / math.log(2.0)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("z,r", [(1e-6, 1.0), (1.0, 1.0), (1.0, 8.0), (1e4, 2.0)])
def test_disc_exponent_closed_form(z, r, alpha):
    direct, _ = quad(lambda t: 2.0 * math.pi * t * -math.expm1(-z * t ** -alpha), 0.0, r,
                     epsabs=0.0, epsrel=1e-12, limit=200)
    assert disc_exponent(z, r, alpha) == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("lam,alpha", CELLS, ids=CELL_IDS)
def test_kernel_matches_exact_throughput(lam, alpha):
    cfg = NetworkConfig(lam, 1.0, alpha)
    window = simulation.default_window_radius(cfg)
    near = near_radius(cfg, window)
    stats = _collect_stats(cfg, window, seed=11, n_realizations=400)
    for column in COLUMNS:
        rule, rate_mode = ((DecodingRule.IAN, "exact_powers") if column == "ian"
                           else (DecodingRule.OPT, column))
        rates = lam * _rates_from_stats(cfg, stats, rule, "full", rate_mode)
        stderr = np.std(rates, ddof=1) / math.sqrt(len(rates))
        z = (np.mean(rates) - exact_throughput(cfg, column, window, near)) / stderr
        assert abs(z) <= 4.0, (column, z)


@pytest.mark.parametrize("lam,alpha", CELLS, ids=CELL_IDS)
def test_ring_mean_bias_is_negligible(lam, alpha):
    # the mean ring against the exact whole window: 2.6e-5 relative at
    # alpha = 2.5 and less at steeper path loss, far below the standard
    # error of any Monte Carlo run the package makes
    cfg = NetworkConfig(lam, 1.0, alpha)
    window = simulation.default_window_radius(cfg)
    near = near_radius(cfg, window)
    for column in COLUMNS:
        whole = exact_throughput(cfg, column, window, window)
        assert exact_throughput(cfg, column, window, near) == pytest.approx(whole, rel=1e-4)


@pytest.mark.parametrize("lam,alpha", CELLS, ids=CELL_IDS)
def test_exact_throughput_below_closest_interferer_closed_forms(lam, alpha):
    # pathwise the full interference is at least the nearest interferer's power
    cfg = NetworkConfig(lam, 1.0, alpha)
    window = simulation.default_window_radius(cfg)
    near = near_radius(cfg, window)
    assert exact_throughput(cfg, "ian", window, near) < ian.cognitive_throughput(cfg).value
    assert (exact_throughput(cfg, "lower_bound_powers", window, near)
            < opt.cognitive_throughput(cfg).value)
