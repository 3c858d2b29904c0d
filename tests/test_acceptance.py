"""End-to-end acceptance suite.

Every tolerance is fixed here; nothing is calibrated at run time.  Each
criterion prints one PASS/FAIL line (visible under ``pytest -s``) and then
asserts.  The statistical criteria use pinned seeds; their margins were
checked to sit far inside the stated tolerances for several seeds, so the
pins are a determinism device, not a tuning device.
"""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from pppt import fixed_rate, ian, opt, simulation
from pppt.model import DecodingRule, NetworkConfig
from pppt.numerics import truncated_poisson_weights

from golden_section import maximize_unimodal

GRID = np.geomspace(0.01, 10.0, 20)           # shared density grid, d=1, alpha=4
SIM_GRID = np.geomspace(0.01, 10.0, 10)       # tightness-study grid
NORMALIZATION_CASES = [(3.0, 1.0), (4.0, 1.0), (6.0, 0.5)]
NORMALIZATION_DENSITIES = (0.01, 1.0, 10.0)

# grid-search oracle (1e-4 step) refined by 40-digit root finding; frozen
BETA_STAR_MU1_A4 = 1.6386493020309000


def report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def c_ian_grid():
    return np.array([ian.cognitive_throughput(NetworkConfig(l, 1.0, 4.0)).value for l in GRID])


@pytest.fixture(scope="module")
def c_opt_grid():
    return np.array([opt.cognitive_throughput(NetworkConfig(l, 1.0, 4.0)).value for l in GRID])


def split_mass(f, legs):
    return sum(quad(f, a, b, limit=800)[0] for a, b in zip(legs[:-1], legs[1:]))


def decade_legs(start, x_dead):
    # the SIR laws live on scales up to (1/mu)^(alpha/2); chunk the span so
    # no single adaptive pass covers more than two decades
    legs = [start]
    g = max(start, 1.0)
    while g < x_dead:
        g *= 100.0
        legs.append(min(g, x_dead))
    legs.append(np.inf)
    return legs


def test_criterion_1_pdf_normalization():
    """All rate/SIR/distance densities integrate to 1 within 1e-6."""
    worst = 0.0
    for alpha, d in NORMALIZATION_CASES:
        for lam in NORMALIZATION_DENSITIES:
            cfg = NetworkConfig(lam, d, alpha)
            mu = cfg.mu
            x_dead = (60.0 / mu) ** (alpha / 2.0)  # SIR scale where the tail is dead
            masses = [
                split_mass(lambda x: ian.pdf_nearest_distance(cfg, x),
                           [0.0, 3.0 / math.sqrt(lam), np.inf]),
                split_mass(lambda x: ian.pdf_sir(cfg, x), [0.0] + decade_legs(1.0, x_dead)),
                split_mass(lambda x: ian.pdf_rate(cfg, x), [0.0, 1.0, 5.0, np.inf]),
                split_mass(lambda x: opt.pdf_sir(cfg, x), decade_legs(1.0, x_dead)),
            ]
            for n in (0, 1, 2, 5):
                edge = opt.conditional_support_edge(n)
                masses.append(split_mass(lambda x: opt.pdf_rate_conditional(cfg, n, x),
                                         [edge, edge + 5.0, np.inf]))
            w = truncated_poisson_weights(mu)
            edges = sorted({opt.conditional_support_edge(i) for i in range(len(w))})
            mix = quad(lambda x: opt.pdf_rate(cfg, x), 0.0, 2.0, points=edges, limit=800)[0] \
                + quad(lambda x: opt.pdf_rate(cfg, x), 2.0, np.inf, limit=800)[0]
            masses.append(mix)
            worst = max(worst, max(abs(m - 1.0) for m in masses))
    report("1 pdf normalization", worst <= 1e-6, f"worst |mass-1| = {worst:.2e}")


def test_criterion_2_bound_sandwich(c_ian_grid, c_opt_grid):
    """lower <= cognitive <= upper for both rules across the grid."""
    slack = 0.0
    for i, lam in enumerate(GRID):
        cfg = NetworkConfig(lam, 1.0, 4.0)
        for y in (0.1, 1.0, 5.0):
            slack = min(slack, c_ian_grid[i] - ian.lower_bound(cfg, y).value)
        slack = min(slack, ian.upper_bound(cfg).value - c_ian_grid[i])
        slack = min(slack, c_opt_grid[i] - opt.lower_bound(cfg, 2.0).value)
        slack = min(slack, opt.upper_bound(cfg).value - c_opt_grid[i])
    report("2 bound sandwich", slack >= -1e-9, f"worst slack = {slack:.2e}")


def test_criterion_3_cognitive_dominates_fixed(c_ian_grid, c_opt_grid):
    """Cognitive >= fixed-rate for both rules; the fixed-rate value equals
    the rate-schedule lower bound it is constructed from."""
    slack = 0.0
    schedule_err = 0.0
    for i, lam in enumerate(GRID):
        cfg = NetworkConfig(lam, 1.0, 4.0)
        t_ian = fixed_rate.highest_throughput(cfg, DecodingRule.IAN).throughput.value
        sol = fixed_rate.highest_throughput(cfg, DecodingRule.OPT)
        t_opt = sol.throughput.value
        slack = min(slack, c_ian_grid[i] - t_ian, c_opt_grid[i] - t_opt)
        bound = opt.lower_bound(cfg, lambda k: float(sol.rates[k])).value
        schedule_err = max(schedule_err, abs(bound - t_opt) / max(t_opt, 1e-300))
    ok = slack >= -1e-9 and schedule_err <= 1e-8
    report("3 cognitive >= fixed", ok,
           f"worst slack = {slack:.2e}, schedule mismatch = {schedule_err:.2e}")


def test_criterion_4_single_peak_and_optimizer(c_ian_grid):
    """One interior maximum; root-based optimal density agrees with the
    golden-section argmax to 1e-3 relative."""
    k = int(np.argmax(c_ian_grid))
    interior = 0 < k < len(GRID) - 1
    unimodal = np.all(np.diff(c_ian_grid[: k + 1]) > 0) and np.all(np.diff(c_ian_grid[k:]) < 0)
    lam_root, _ = ian.optimal_density(1.0, 4.0)
    t_star, _ = maximize_unimodal(
        lambda t: ian.cognitive_throughput(NetworkConfig(math.exp(t), 1.0, 4.0)).value,
        (math.log(0.01), math.log(10.0)), tol=1e-7)
    lam_golden = math.exp(t_star)
    rel = abs(lam_root - lam_golden) / lam_golden
    ok = interior and unimodal and rel <= 1e-3
    report("4 single peak + optimal density", ok,
           f"argmax index {k}, root {lam_root:.6f} vs golden {lam_golden:.6f} (rel {rel:.1e})")


def test_criterion_5_opt_shape(c_ian_grid, c_opt_grid):
    """Joint decoding is nondecreasing in density and dominates noise-only."""
    nondecreasing = bool(np.all(np.diff(c_opt_grid) >= -1e-9))
    dominates = bool(np.all(c_opt_grid >= c_ian_grid - 1e-9))
    report("5 opt shape", nondecreasing and dominates,
           f"nondecreasing={nondecreasing}, dominates={dominates}")


def test_criterion_6_asymptotics():
    """Rescaled noise-only throughput flattens; joint-decoding throughput
    approaches its upper bound from below."""
    rescaled = [
        ian.cognitive_throughput(NetworkConfig(l, 1.0, 4.0)).value * l for l in (10.0, 30.0, 100.0)
    ]
    r21 = rescaled[1] / rescaled[0]
    r32 = rescaled[2] / rescaled[1]
    flat = abs(r21 - 1.0) <= 0.05 and abs(r32 - 1.0) <= 0.05
    ratios = []
    for lam in (10.0, 100.0, 1000.0):
        cfg = NetworkConfig(lam, 1.0, 4.0)
        ratios.append(opt.cognitive_throughput(cfg).value / opt.upper_bound(cfg).value)
    approaching = (ratios[0] <= ratios[1] <= ratios[2] <= 1.0 + 1e-9
                   and (1.0 - ratios[2]) < (1.0 - ratios[0]))
    report("6 asymptotics", flat and approaching,
           f"rescaled ratios {r21:.4f},{r32:.4f}; bound ratios {ratios}")


def test_criterion_7_fixed_rate_oracle():
    """Stationarity root equals the brute-force argmax of the objective."""
    rng = np.random.default_rng(20240131)
    worst = 0.0
    for _ in range(20):
        mu = float(np.exp(rng.uniform(np.log(0.2), np.log(20.0))))
        alpha = float(rng.uniform(2.5, 6.0))
        cfg = NetworkConfig(mu / math.pi, 1.0, alpha)
        root = fixed_rate.highest_throughput(cfg, DecodingRule.IAN).sir_thresholds[0]
        b = np.arange(1e-4, 400.0, 1e-4)
        grid_argmax = float(b[np.argmax(np.log2(1.0 + b) * np.exp(-mu * b ** (2.0 / alpha)))])
        worst = max(worst, abs(root - grid_argmax) / max(1.0, grid_argmax))
    pinned = fixed_rate.highest_throughput(NetworkConfig(1 / math.pi, 1.0, 4.0),
                                           DecodingRule.IAN).sir_thresholds[0]
    pin_err = abs(pinned - BETA_STAR_MU1_A4)
    ok = worst <= 1e-3 and pin_err <= 1e-3
    report("7 fixed-rate threshold oracle", ok,
           f"worst grid gap = {worst:.2e}, pinned case off by {pin_err:.2e}")


def test_criterion_8_simulation_consistency():
    """Nearest-interferer-only Monte Carlo reproduces the closed forms."""
    seed = 7
    worst_z = 0.0
    for lam in (0.01, 0.1, 1.0):
        cfg = NetworkConfig(lam, 1.0, 4.0)
        est = simulation.estimate_cognitive(cfg, DecodingRule.IAN, mode="closest",
                                            n_realizations=10_000, seed=seed)
        worst_z = max(worst_z, abs(est.mean - ian.cognitive_throughput(cfg).value) / est.stderr)
        sol = fixed_rate.highest_throughput(cfg, DecodingRule.IAN)
        estf = simulation.estimate_fixed_rate(cfg, sol, n_realizations=10_000,
                                              seed=seed, mode="closest")
        worst_z = max(worst_z, abs(estf.mean - sol.throughput.value) / estf.stderr)
    report("8 simulation consistency", worst_z <= 3.0, f"worst |z| = {worst_z:.2f}")


def test_criterion_9_approximation_tightness():
    """Full-interference simulation: the closed forms upper-bound the
    noise-only rule, the approximation tightens at low density, joint
    decoding wins everywhere, and the rule ratio matches analytically."""
    cfgs = [NetworkConfig(float(l), 1.0, 4.0) for l in SIM_GRID]
    rows = simulation.tightness_report(cfgs, n_realizations=10_000, seed=42)
    upper_bounding = all(r["c_ian_simulated"] <= r["c_ian_analytic"] for r in rows)
    by_lam = {round(r["lam"], 6): r for r in rows}
    gap = lambda r: (r["c_ian_analytic"] - r["c_ian_simulated"]) / r["c_ian_analytic"]
    tightens = gap(by_lam[0.01]) < gap(by_lam[1.0])
    opt_wins = all(r["c_opt_simulated"] >= r["c_ian_simulated"] for r in rows)
    ratio_gap = max(abs(r["ratio_analytic"] - r["ratio_simulated"]) for r in rows)
    ok = upper_bounding and tightens and opt_wins and ratio_gap <= 0.15
    report("9 approximation tightness", ok,
           f"upper_bounding={upper_bounding}, gap {gap(by_lam[0.01]):.3f} -> {gap(by_lam[1.0]):.3f}, "
           f"opt_wins={opt_wins}, worst ratio gap = {ratio_gap:.3f}")


def test_criterion_10_contact_distance_law():
    """Kolmogorov-Smirnov distance of 1e5 sampled nearest-interferer
    distances against the Rayleigh contact law is below 0.01."""
    cfg = NetworkConfig(1.0, 1.0, 4.0)
    stats = simulation._collect_stats(cfg, 10.0, seed=0, n_realizations=100_000)
    dists = np.sqrt(stats[DecodingRule.IAN].r2_noise)
    dists.sort()
    model = -np.expm1(-cfg.lam * math.pi * dists**2)
    n = len(dists)
    ks = max(np.max(np.arange(1, n + 1) / n - model), np.max(model - np.arange(0, n) / n))
    report("10 contact distance law", ks < 0.01, f"KS distance = {ks:.4f}")
