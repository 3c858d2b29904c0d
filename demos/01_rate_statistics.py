"""Rate statistics of the typical link under the two decoding rules.

Walks through the chain nearest-interferer distance -> highest decodable
SIR -> highest achievable rate, evaluates the closed-form densities, and
sanity-checks their normalization.  Saves a plot when matplotlib is
importable, otherwise prints tables only.

Run:  python demos/01_rate_statistics.py
"""
import numpy as np

from pppt import NetworkConfig, ian, opt
from pppt.numerics import integrate

cfg = NetworkConfig(lam=1 / np.pi, d=1.0, alpha=4.0)  # mu = lam*pi*d^2 = 1
print(f"Network: density {cfg.lam:.4f} /m^2, link distance {cfg.d} m, "
      f"path-loss exponent {cfg.alpha}  (mu = {cfg.mu:.3f})")

print("\nThe receiver's nearest interferer sits at a Rayleigh-distributed")
print("distance; treating it as the whole interference gives the SIR and")
print("rate laws below.")

x = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
print("\n  x [m or bits/s/Hz] | nearest-distance pdf |  SIR pdf | rate pdf (noise rule)")
for xi in x:
    print(f"  {xi:18.2f} | {ian.pdf_nearest_distance(cfg, xi):20.4f} |"
          f" {ian.pdf_sir(cfg, xi):8.4f} | {ian.pdf_rate(cfg, xi):8.4f}")

mass = integrate(lambda t: ian.pdf_rate(cfg, t))
print(f"\nRate-density normalization check: {mass:.8f} (should be 1)")

print("\nUnder joint decoding the rate density becomes a Poisson mixture over")
print("the number of interferers inside the link disc; each component starts")
print("at its own support edge log2(2+n)/(1+n):")
for n in range(4):
    edge = opt.conditional_support_edge(n)
    print(f"  n = {n}: support starts at {edge:.4f} bits/s/Hz, "
          f"mean rate {opt.conditional_mean_rate(cfg, n):.4f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the figure")
else:
    xs = np.linspace(1e-3, 6.0, 600)
    fig, ax = plt.subplots(figsize=(7, 4.5))
    ax.plot(xs, ian.pdf_rate(cfg, xs), label="interference as noise")
    ax.plot(xs, opt.pdf_rate(cfg, xs), label="joint decoding (mixture)")
    ax.set_xlabel("achievable rate [bits/s/Hz]")
    ax.set_ylabel("density")
    ax.set_title("Highest achievable rate of the typical link (mu = 1, alpha = 4)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo01_rate_pdfs.png", dpi=150)
    print("\nwrote demo01_rate_pdfs.png")
