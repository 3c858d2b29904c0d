#!/usr/bin/env python3
"""Regenerate the frozen references in ``refs/`` beside this file.

    PYTHONPATH=src python3 benchmarks/make_refs.py analytic
    PYTHONPATH=src python3 benchmarks/make_refs.py mc

``analytic.json`` holds every analytic cell the workloads print, computed
by the library at tighter quadrature and series tolerances than its
defaults.  Where the library itself fails (``opt.lower_bound`` overflows in
``math.expm1`` once (1+i)*y*ln2 > 709), the same sum is evaluated in log
space and the cell is listed under ``logspace_cells``.

``mc.json`` holds, per density of the Monte Carlo grid and for both
decoding rules, the mean and the per-realization standard deviation of
lam * rate, from the library's window sampler (full interference,
lower-bound powers, as both Monte Carlo workloads use).  It pools
``REF_BATCHES`` independent batches of ``REF_BATCH_REALIZATIONS``, seeded
apart from the workloads; the spread of the standard deviation across
batches (``sd_spread``, at the batch size) sets the tolerance on the
standard-error cells.  The mc run takes several CPU-minutes, on one worker
process per CPU in the affinity mask.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from multiprocessing import get_context
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

from pppt import DecodingRule, NetworkConfig, fixed_rate, ian, opt, simulation  # noqa: E402
from pppt.numerics import QuadratureSpec, SeriesTruncation, truncated_poisson_weights  # noqa: E402

REF_SPEC = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=10_000)
REF_TRUNCATION = SeriesTruncation(mass_tol=1e-14)
REF_BATCHES = 40
REF_BATCH_REALIZATIONS = 500
REF_SEED = 20_130_309
Y_IAN, Y_OPT = 1.0, 2.0  # the CLI's default lower-bound rate anchors


def lower_opt_logspace(cfg: NetworkConfig, y: float) -> float:
    """opt.lower_bound with b = expm1((1+i)*y*ln2)/(1+i) taken in log space."""
    e = 2.0 / cfg.alpha
    total = 0.0
    for i, wi in enumerate(truncated_poisson_weights(cfg.mu, REF_TRUNCATION)):
        x = (1.0 + i) * y * math.log(2.0)
        log_b = x + math.log(-math.expm1(-x)) - math.log1p(i)
        log_term = -cfg.mu * math.expm1(e * log_b) if e * log_b < 700.0 else -math.inf
        total += wi * y * math.exp(log_term)
    return cfg.lam * total


def sweep_row(cfg: NetworkConfig, logspace: list) -> dict:
    cells = {
        "cognitive_ian": lambda: ian.cognitive_throughput(cfg, REF_SPEC).value,
        "cognitive_opt": lambda: opt.cognitive_throughput(cfg, REF_SPEC, REF_TRUNCATION).value,
        "fixed_ian": lambda: fixed_rate.highest_throughput(cfg, DecodingRule.IAN).throughput.value,
        "fixed_opt": lambda: fixed_rate.highest_throughput(
            cfg, DecodingRule.OPT, REF_TRUNCATION).throughput.value,
        "lower_ian": lambda: ian.lower_bound(cfg, Y_IAN).value,
        "upper_ian": lambda: ian.upper_bound(cfg).value,
        "asymptote_ian": lambda: ian.asymptote(cfg).value,
        "lower_opt": lambda: opt.lower_bound(cfg, Y_OPT, REF_TRUNCATION).value,
        "upper_opt": lambda: opt.upper_bound(cfg, REF_SPEC, REF_TRUNCATION).value,
    }
    row = {}
    for name, compute in cells.items():
        try:
            row[name] = compute()
        except OverflowError:
            if name != "lower_opt":
                raise
            row[name] = lower_opt_logspace(cfg, Y_OPT)
            logspace.append([cfg.alpha, cfg.lam, name])
    return row


def make_analytic() -> dict:
    tables, logspace = [], []
    lo, hi, points = bench.ANALYTIC_GRID
    for alpha in bench.ANALYTIC_ALPHAS:
        grid = np.geomspace(lo, hi, points)
        rows = [sweep_row(NetworkConfig(float(lam), 1.0, alpha), logspace) for lam in grid]
        tables.append({"alpha": alpha, "lambda": grid.tolist(),
                       "columns": {k: [r[k] for r in rows] for k in rows[0]}})
        print(f"alpha={alpha:g}: {points} rows", file=sys.stderr)
    lo, hi, points = bench.MC_GRID
    grid = np.geomspace(lo, hi, points)
    c_ian, c_opt = [], []
    for lam in grid:
        cfg = NetworkConfig(float(lam), 1.0, 4.0)
        c_ian.append(ian.cognitive_throughput(cfg, REF_SPEC).value)
        c_opt.append(opt.cognitive_throughput(cfg, REF_SPEC, REF_TRUNCATION).value)
    tables.append({"alpha": 4.0, "lambda": grid.tolist(), "columns": {
        "c_ian_analytic": c_ian, "c_opt_analytic": c_opt,
        "ratio_analytic": [a / b for a, b in zip(c_ian, c_opt)]}})
    return {
        "quadrature": asdict(REF_SPEC),
        "truncation": {"mass_tol": REF_TRUNCATION.mass_tol},
        "logspace_cells": logspace,
        "tables": tables,
    }


def _mc_batch(task) -> dict:
    lam, batch = task
    cfg = NetworkConfig(lam, 1.0, 4.0)
    (row,) = simulation.tightness_report([cfg], n_realizations=REF_BATCH_REALIZATIONS,
                                         seed=REF_SEED + batch)
    return {rule: (row[f"c_{rule}_simulated"], row[f"c_{rule}_stderr"]) for rule in ("ian", "opt")}


def _pool_batches(batches: list) -> dict:
    """Mean, per-realization sd, and the spread of that sd over batches."""
    n = REF_BATCH_REALIZATIONS
    means = np.array([m for m, _ in batches])
    sds = np.array([se for _, se in batches]) * math.sqrt(n)
    mean = float(means.mean())
    pooled = ((n - 1) * np.sum(sds**2) + n * np.sum((means - mean) ** 2)) / (n * len(batches) - 1)
    return {"mean": mean, "sd": math.sqrt(pooled), "sd_spread": float(np.std(sds, ddof=1))}


def make_mc() -> dict:
    lo, hi, points = bench.MC_GRID
    grid = [float(x) for x in np.geomspace(lo, hi, points)]
    # largest density first: it dominates the cost
    tasks = [(lam, b) for lam in grid[::-1] for b in range(REF_BATCHES)]
    jobs = len(os.sched_getaffinity(0))
    with ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("spawn")) as pool:
        results = dict(zip(tasks, pool.map(_mc_batch, tasks)))
    rules = {}
    for rule in ("ian", "opt"):
        pooled = [_pool_batches([results[lam, b][rule] for b in range(REF_BATCHES)])
                  for lam in grid]
        rules[rule] = {key: [p[key] for p in pooled] for key in ("mean", "sd", "sd_spread")}
    return {
        "n_realizations": REF_BATCHES * REF_BATCH_REALIZATIONS,
        "batches": REF_BATCHES,
        "batch_realizations": REF_BATCH_REALIZATIONS,
        "seeds": [REF_SEED, REF_SEED + REF_BATCHES - 1],
        "interference_mode": "full",
        "rate_mode": "lower_bound_powers",
        "lambda": grid,
        "rules": rules,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("which", choices=("analytic", "mc"))
    args = parser.parse_args()
    data = make_analytic() if args.which == "analytic" else make_mc()
    bench.REFS.mkdir(exist_ok=True)
    with open(bench.REFS / f"{args.which}.json", "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
