"""How good is the closest-interferer approximation?

The closed forms replace the aggregate interference by the single nearest
interferer, which under-counts interference and over-states throughput.
Monte Carlo with full aggregate interference quantifies the optimism: the
absolute gap widens with density.  The ratio between the two decoding
rules — the quantity that drives design decisions — holds better, but its
relative drift grows with density too: a few percent on this grid
(lambda <= 2), about a third at lambda = 10 (0.018 closed form against
0.028 simulated) and about half at mu = 100 (0.0043 against 0.0091).

Run:  python demos/04_approximation_tightness.py   (under a second)
"""
import numpy as np

from pppt import NetworkConfig, simulation

lams = np.geomspace(0.01, 2.0, 6)
cfgs = [NetworkConfig(float(l), 1.0, 4.0) for l in lams]
rows = simulation.tightness_report(cfgs, n_realizations=2000, seed=1)

print("  lambda | C noise (analytic/sim) | C joint (analytic/sim) | rule ratio (analytic/sim)")
for r in rows:
    print(f"  {r['lam']:6.3f} | {r['c_ian_analytic']:10.4f} / {r['c_ian_simulated']:6.4f}"
          f" | {r['c_opt_analytic']:10.4f} / {r['c_opt_simulated']:6.4f}"
          f" | {r['ratio_analytic']:8.4f} / {r['ratio_simulated']:6.4f}")

gaps = [(r["c_ian_analytic"] - r["c_ian_simulated"]) / r["c_ian_analytic"] for r in rows]
print(f"\nRelative optimism of the closed form (noise rule): "
      f"{gaps[0]:.1%} at lambda = {rows[0]['lam']:.2f} "
      f"growing to {gaps[-1]:.1%} at lambda = {rows[-1]['lam']:.2f}.")
drifts = [abs(r["ratio_analytic"] - r["ratio_simulated"]) / r["ratio_simulated"] for r in rows]
print(f"Relative drift of the rule ratio: {drifts[0]:.1%} at lambda = {rows[0]['lam']:.2f}, "
      f"{drifts[-1]:.1%} at lambda = {rows[-1]['lam']:.2f} — the comparison between")
print("decoding rules holds better than the absolute numbers, but also loosens with density.")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4.2))
    ax1.loglog(lams, [r["c_ian_analytic"] for r in rows], "o-", label="noise rule, closed form")
    ax1.errorbar(lams, [r["c_ian_simulated"] for r in rows],
                 yerr=[3 * r["c_ian_stderr"] for r in rows], fmt="o--", label="noise rule, simulated")
    ax1.loglog(lams, [r["c_opt_analytic"] for r in rows], "s-", label="joint rule, closed form")
    ax1.errorbar(lams, [r["c_opt_simulated"] for r in rows],
                 yerr=[3 * r["c_opt_stderr"] for r in rows], fmt="s--", label="joint rule, simulated")
    ax1.set_xlabel("density [nodes/m$^2$]")
    ax1.set_ylabel("spatial throughput [bits/s/Hz/m$^2$]")
    ax1.legend(fontsize=8)
    ax2.semilogx(lams, [r["ratio_analytic"] for r in rows], "o-", label="closed form")
    ax2.semilogx(lams, [r["ratio_simulated"] for r in rows], "o--", label="simulated")
    ax2.set_xlabel("density [nodes/m$^2$]")
    ax2.set_ylabel("throughput ratio, noise / joint")
    ax2.legend()
    fig.suptitle("Closest-interferer approximation vs full aggregate interference")
    fig.tight_layout()
    fig.savefig("demo04_tightness.png", dpi=150)
    print("wrote demo04_tightness.png")
