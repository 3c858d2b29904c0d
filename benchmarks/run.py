#!/usr/bin/env python3
"""pppt benchmark: run one named workload through ``pppt.cli.main``, check
every output cell against the frozen references, print metrics as JSON.

    python3 benchmarks/run.py --workload analytic-sweep --seed 1 --seconds 45 --trace 0

Run it from the repository root; it imports the package from ``src/``.
Each repetition runs in a fresh interpreter (``child.py``), so set-up time
and peak memory belong to that repetition.  Repetitions continue until the
next one, with the import-only interpreters that complete the set-up
samples, would end past ``--seconds``; more import-only interpreters fill
the time left.  ``--trace 1`` adds one traced
repetition after the untraced ones and reports per-layer metrics instead of
end-to-end ones.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run facts.  See README.md beside this file.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
OUT_ROOT = Path(".bench_out")
CHILD_TIMEOUT_S = 170.0
# fewest import samples behind the setup_s median, the repetitions' own
# included; an untraced run adds more while time is left
MIN_SETUP_SAMPLES = 11

# A cell fails when it is NaN, or when it is off its reference by more than
# these.  Analytic cells: 1e-6 relative, or 1e-10 absolute per unit density,
# 100 times the library's documented quadrature contract (rel 1e-8 or abs
# 1e-12 on the per-link mean rate); the CSV keeps 12 digits.  Every analytic
# cell must also be within 1e-3 relative, so a cell far below the absolute
# term (alpha = 20 at large lambda) can still fail; a zero reference admits
# only zero.  Monte Carlo means: |z| against the reference mean, combining
# both standard errors.
# Monte Carlo standard errors: |z| against the reference sd / sqrt(n), using
# the spread of the sample sd that the reference measured across batches.
ANALYTIC_REL_TOL = 1e-6
ANALYTIC_ABS_TOL_PER_LAMBDA = 1e-10
ANALYTIC_REL_CAP = 1e-3
MC_Z_TOL = 5.0
DERIVED_REL_TOL = 1e-9
LAMBDA_REL_TOL = 1e-9

ANALYTIC_ALPHAS = (2.5, 4.0, 20.0)
ANALYTIC_GRID = (0.01, 1000.0, 40)
MC_GRID = (0.01, 10.0, 10)
FIG6_REALIZATIONS = 1000
SIM_REALIZATIONS = 500

# Smoke sizes keep every workload's shape on a subset of its grid: 4 points
# of a 40-point (10-point) log grid land on reference points.
SMOKE_ANALYTIC_POINTS = 4
SMOKE_MC_POINTS = 4
SMOKE_REALIZATIONS = 100

WORKLOADS = ("analytic-sweep", "tightness-fig6", "simulate-sweep")

ANALYTIC_COLUMNS = {
    "cognitive_ian", "cognitive_opt", "fixed_ian", "fixed_opt", "lower_ian",
    "upper_ian", "asymptote_ian", "lower_opt", "upper_opt",
    "c_ian_analytic", "c_opt_analytic", "ratio_analytic",
}
MC_MEAN_COLUMNS = {"sim_ian": "ian", "sim_opt": "opt",
                   "c_ian_simulated": "ian", "c_opt_simulated": "opt"}
MC_STDERR_COLUMNS = {"sim_ian_stderr": "ian", "sim_opt_stderr": "opt",
                     "c_ian_stderr": "ian", "c_opt_stderr": "opt"}
# the stderr column that goes with each mean column
MC_PAIRED_STDERR = {"sim_ian": "sim_ian_stderr", "sim_opt": "sim_opt_stderr",
                    "c_ian_simulated": "c_ian_stderr", "c_opt_simulated": "c_opt_stderr"}


@dataclass(frozen=True)
class Invocation:
    """One ``pppt`` command of a workload and the table it must produce."""

    argv: tuple[str, ...]
    csv: str                 # path of the CSV it writes, relative to the root
    alpha: float
    grid: tuple[float, float, int]
    n_columns: int           # value columns besides lambda
    realizations: int | None


def invocations(workload: str, seed: int, out_dir: Path, smoke: bool = False) -> list[Invocation]:
    """The pppt commands of a workload; the seed reaches pppt only as --seed."""
    s = ["--seed", str(seed)]
    if workload == "analytic-sweep":
        lo, hi, points = ANALYTIC_GRID
        points = SMOKE_ANALYTIC_POINTS if smoke else points
        out = []
        for alpha in ANALYTIC_ALPHAS:
            path = str(out_dir / f"sweep_alpha{alpha:g}.csv")
            argv = ("sweep", "--lambda-min", f"{lo:g}", "--lambda-max", f"{hi:g}",
                    "--points", str(points), "--method", "cognitive", "--method", "fixed",
                    "--method", "bounds", "--alpha", f"{alpha:g}", *s, "--out", path)
            out.append(Invocation(argv, path, alpha, (lo, hi, points), 9, None))
        return out
    lo, hi, points = MC_GRID
    points = SMOKE_MC_POINTS if smoke else points
    if workload == "tightness-fig6":
        n = SMOKE_REALIZATIONS if smoke else FIG6_REALIZATIONS
        argv = ("figures", "--fig", "6", "--realizations", str(n), *s,
                "--out-dir", str(out_dir))
        if smoke:
            argv += ("--points", str(points))
        return [Invocation(argv, str(out_dir / "fig6.csv"), 4.0, (lo, hi, points), 8, n)]
    if workload == "simulate-sweep":
        n = SMOKE_REALIZATIONS if smoke else SIM_REALIZATIONS
        path = str(out_dir / "simulate.csv")
        argv = ("sweep", "--lambda-min", f"{lo:g}", "--lambda-max", f"{hi:g}",
                "--points", str(points), "--method", "simulate", "--realizations", str(n),
                *s, "--out", path)
        return [Invocation(argv, path, 4.0, (lo, hi, points), 4, n)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ----------------------------------------------------------------- checks

class References:
    """Frozen reference values, looked up by (alpha, column, lambda)."""

    def __init__(self, refs_dir: Path = REFS):
        with open(refs_dir / "analytic.json") as fh:
            analytic = json.load(fh)
        with open(refs_dir / "mc.json") as fh:
            mc = json.load(fh)
        self.analytic = [(t["alpha"], np.array(t["lambda"]), t["columns"])
                         for t in analytic["tables"]]
        self.mc_lambda = np.array(mc["lambda"])
        self.mc = mc["rules"]
        self.mc_realizations = mc["n_realizations"]
        self.mc_batch_realizations = mc["batch_realizations"]

    @staticmethod
    def _index(grid: np.ndarray, lam: float):
        hit = np.nonzero(np.abs(grid - lam) <= LAMBDA_REL_TOL * lam)[0]
        return int(hit[0]) if hit.size else None

    def analytic_value(self, alpha: float, column: str, lam: float):
        for a, grid, cols in self.analytic:
            if a == alpha and column in cols:
                i = self._index(grid, lam)
                if i is not None:
                    return cols[column][i]
        return None

    def mc_value(self, rule: str, lam: float):
        """(mean, per-realization sd, spread of the sample sd at batch size)
        of lam * rate."""
        i = self._index(self.mc_lambda, lam)
        if i is None:
            return None
        ref = self.mc[rule]
        return ref["mean"][i], ref["sd"][i], ref["sd_spread"][i]


@dataclass
class CheckReport:
    """Per-cell outcome of one repetition's tables."""

    attempted: int = 0
    failed: int = 0          # NaN cells plus cells outside tolerance
    nan_cells: int = 0
    wrong: list = field(default_factory=list)   # silently wrong cells
    problems: list = field(default_factory=list)  # table-level defects
    max_rel_err: float = 0.0
    max_abs_z: float = 0.0

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.problems


def _read_table(path: str):
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing the '#' metadata line")
    rows = list(csv.reader(lines[1:]))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def check_invocation(inv: Invocation, exit_code, refs: References, report: CheckReport) -> None:
    """Check one invocation's CSV cell by cell and add to ``report``.

    A NaN cell is a failed operation; it is correct behaviour only when the
    command exited 1, as the CLI documents.  A finite cell outside tolerance
    is both failed and wrong.  A crash fails every expected cell.
    """
    n_expected = inv.grid[2] * inv.n_columns
    if exit_code not in (0, 1):
        report.attempted += n_expected
        report.failed += n_expected
        report.problems.append(f"{' '.join(inv.argv[:1])}: exit {exit_code}")
        return
    try:
        header, rows = _read_table(inv.csv)
    except (OSError, ValueError, IndexError) as exc:
        report.attempted += n_expected
        report.failed += n_expected
        report.problems.append(f"{inv.csv}: unreadable table ({exc})")
        return
    lo, hi, points = inv.grid
    grid = np.geomspace(lo, hi, points)
    if not header or header[0] != "lambda" or len(rows) != points or any(len(r) != len(header) for r in rows):
        report.problems.append(f"{inv.csv}: unexpected shape")
    cols = {name: j for j, name in enumerate(header)}
    nan_seen = False
    seen = 0
    for i, row in enumerate(rows):
        lam = row[0]
        if i < points and abs(lam - grid[i]) > LAMBDA_REL_TOL * grid[i]:
            report.problems.append(f"{inv.csv}: row {i} has lambda {lam}, expected {grid[i]}")
        for name, j in cols.items():
            if name == "lambda":
                continue
            report.attempted += 1
            seen += 1
            v = row[j]
            if math.isnan(v):
                report.failed += 1
                report.nan_cells += 1
                nan_seen = True
                continue
            ok, what = _check_cell(inv, name, lam, v, row, cols, refs, report)
            if not ok:
                report.failed += 1
                report.wrong.append(f"{inv.csv} lambda={lam:g} {name}={v!r}: {what}")
    if len(header) - 1 != inv.n_columns:
        report.problems.append(f"{inv.csv}: columns {header}")
    missing = n_expected - seen
    if missing > 0:
        report.attempted += missing
        report.failed += missing
    if nan_seen and exit_code != 1:
        report.problems.append(f"{inv.csv}: NaN cells but exit {exit_code}")
    if not nan_seen and exit_code != 0:
        report.problems.append(f"{inv.csv}: no NaN cell but exit {exit_code}")


def _check_cell(inv, name, lam, v, row, cols, refs, report):
    if name in ANALYTIC_COLUMNS:
        ref = refs.analytic_value(inv.alpha, name, lam)
        if ref is None:
            return False, "no reference"
        err = abs(v - ref)
        if ref != 0.0:
            report.max_rel_err = max(report.max_rel_err, err / abs(ref))
        ok = (err <= ANALYTIC_REL_TOL * abs(ref) + ANALYTIC_ABS_TOL_PER_LAMBDA * lam
              and err <= ANALYTIC_REL_CAP * abs(ref))
        return ok, f"reference {ref!r}"
    if name in MC_MEAN_COLUMNS:
        ref = refs.mc_value(MC_MEAN_COLUMNS[name], lam)
        if ref is None:
            return False, "no reference"
        mean, sd, _ = ref
        se = row[cols[MC_PAIRED_STDERR[name]]]
        z = (v - mean) / math.hypot(se, sd / math.sqrt(refs.mc_realizations))
        report.max_abs_z = max(report.max_abs_z, abs(z))
        return abs(z) <= MC_Z_TOL, f"z={z:.2f} against reference {mean!r}"
    if name in MC_STDERR_COLUMNS:
        ref = refs.mc_value(MC_STDERR_COLUMNS[name], lam)
        if ref is None:
            return False, "no reference"
        _, sd, spread = ref
        n = inv.realizations
        expect = sd / math.sqrt(n)
        z = (v - expect) / (spread * math.sqrt(refs.mc_batch_realizations / n) / math.sqrt(n))
        return abs(z) <= MC_Z_TOL, f"z={z:.2f} against {expect!r}"
    if name == "ratio_simulated":
        want = row[cols["c_ian_simulated"]] / row[cols["c_opt_simulated"]]
        return abs(v - want) <= DERIVED_REL_TOL * abs(want), f"c_ian/c_opt = {want!r}"
    return False, "unknown column"


# ------------------------------------------------------------- repetitions

def child_env() -> tuple[dict, int]:
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PPPT_THREADS"] = str(threads)
    return env, threads


def run_child(spec: dict, out_dir: Path, tag: str, env: dict) -> dict:
    """Run ``child.py`` on ``spec`` in a fresh interpreter; return its result."""
    spec_path = out_dir / f"{tag}.spec.json"
    result_path = out_dir / f"{tag}.result.json"
    spec = dict(spec, result=str(result_path))
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"benchmark child failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["elapsed_s"] = elapsed
    return result


def run_rep(invs: list[Invocation], trace: bool, out_dir: Path, tag: str, env: dict,
            refs: References) -> tuple[dict, CheckReport]:
    for inv in invs:
        Path(inv.csv).unlink(missing_ok=True)
    spec = {"invocations": [list(inv.argv) for inv in invs], "trace": trace,
            "spans": str(out_dir / "spans.jsonl") if trace else None}
    result = run_child(spec, out_dir, tag, env)
    report = CheckReport()
    for inv, code in zip(invs, result["exit_codes"]):
        check_invocation(inv, code, refs, report)
    return result, report


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_metric_specs() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {"end_to_end": bench["end_to_end"], "per_layer": bench["per_layer"]}


def per_layer_values(summary: dict, traced: dict, untraced_wall: float,
                     report: CheckReport) -> dict:
    """Per-layer metric values from the traced repetition's span summary."""
    fns = summary["functions"]
    values = {}
    for key, fn in fns.items():
        values[f"{key}.calls"] = fn["calls"]
        values[f"{key}.self_s"] = fn["self_s"]
        values[f"{key}.failed"] = fn["failed"]
    integ = fns.get("numerics.integrate", {"calls": 0, "total_s": 0.0})
    values["numerics.integrate.us_per_call"] = (
        1e6 * integ["total_s"] / integ["calls"] if integ["calls"] else 0.0)
    for label, durations in summary["cognitive_opt_ms_by_mu"].items():
        values[f"opt.cognitive_throughput.ms_{label}"] = (
            statistics.median(durations) if durations else 0.0)
    values["numerics.truncated_poisson_weights.terms"] = summary["poisson_terms"]
    sampler_s = summary["sampler_self_s"]
    values["simulation.realizations"] = summary["realizations"]
    values["simulation.points"] = summary["points"]
    values["simulation.realizations_per_s"] = (
        summary["realizations"] / sampler_s if sampler_s else 0.0)
    values["simulation.mpoints_per_s"] = summary["points"] / 1e6 / sampler_s if sampler_s else 0.0
    values["cli.pool.busy_over_wall"] = summary["worker_cpu_s"] / traced["wall_s"]
    values["cli.cpu_over_wall"] = traced["cpu_s"] / traced["wall_s"]
    values["accuracy.analytic.max_rel_err"] = report.max_rel_err
    values["accuracy.mc.max_abs_z"] = report.max_abs_z
    values["trace.overhead_share"] = traced["wall_s"] / untraced_wall - 1.0
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """Run repetitions for ``seconds``; return (result line, run facts)."""
    specs = load_metric_specs()
    refs = References()
    env, threads = child_env()
    out_dir = OUT_ROOT / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    invs = invocations(workload, seed, out_dir, smoke)

    start = time.perf_counter()
    reps, reports, setups = [], [], []
    min_reps = 1 if trace else 2
    while True:
        result, report = run_rep(invs, False, out_dir, f"rep{len(reps)}", env, refs)
        if not Path(result["pppt"]).resolve().is_relative_to(Path("src").resolve()):
            raise RuntimeError(f"measured {result['pppt']}, not the package under src/")
        reps.append(result)
        reports.append(report)
        setups.append(result["setup_s"])
        per_rep = statistics.median(r["elapsed_s"] for r in reps)
        # what must still follow one more repetition: the traced repetition,
        # or the import-only interpreters that complete the setup_s samples
        per_setup = statistics.median(r["elapsed_s"] - r["wall_s"] for r in reps)
        if trace:
            reserve = per_rep
        else:
            reserve = max(0, MIN_SETUP_SAMPLES - len(reps) - 1) * per_setup
        if len(reps) >= min_reps and time.perf_counter() - start + per_rep + reserve > seconds:
            break
    traced = None
    if trace:
        traced, report = run_rep(invs, True, out_dir, "traced", env, refs)
        reports.append(report)
        setups.append(traced["setup_s"])
    else:
        while (len(setups) < MIN_SETUP_SAMPLES
               or time.perf_counter() - start + per_setup <= seconds):
            setup = run_child({"invocations": [], "trace": False}, out_dir,
                              f"setup{len(setups)}", env)
            setups.append(setup["setup_s"])
            per_setup = setup["elapsed_s"]

    untraced_wall = statistics.median(r["wall_s"] for r in reps)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": untraced_wall,
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    if trace:
        values = per_layer_values(traced["trace"], traced, untraced_wall, reports[-1])
        wanted = specs["per_layer"]
    else:
        values = end_to_end
        wanted = specs["end_to_end"]
    # a function no longer in the library reports 0 calls and 0 failures
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0)), "unit": m["unit"]}
               for m in wanted}
    line = {
        "correct": all(r.correct for r in reports),
        "attempted": sum(r.attempted for r in reports),
        "failed": sum(r.failed for r in reports),
        "metrics": metrics,
    }
    first = reps[0]
    facts = {
        "workload": workload,
        "seed": seed,
        "size": "smoke" if smoke else "full",
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": threads,
        "pppt_threads": env["PPPT_THREADS"],
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "git_commit": git_commit(),
        "samples": {"setup_s": len(setups), "wall_s": len(reps), "cpu_s": len(reps),
                    "peak_rss_mb": len(reps), "traced_reps": 1 if trace else 0},
        # calls behind each per-decade median of opt.cognitive_throughput
        "mu_bin_calls": ({label: len(ms) for label, ms
                          in traced["trace"]["cognitive_opt_ms_by_mu"].items()} if trace else None),
        "cells_per_rep": reports[0].attempted,
        "nan_cells_per_rep": reports[0].nan_cells,
        "wrong_cells": [w for r in reports for w in r.wrong][:20],
        "problems": [p for r in reports for p in r.problems][:20],
        "end_to_end": end_to_end,
        "reps": [{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")} for r in reps],
    }
    with open(out_dir / "facts.json", "w") as fh:
        json.dump({"facts": facts, "result": line}, fh, indent=1)
    return line, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/pppt/cli.py").is_file():
        print("error: run from the repository root; src/pppt/cli.py not found", file=sys.stderr)
        return 2
    line, facts = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"facts": facts}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
