"""Tests of the benchmark harness itself, not of pppt.

    python3 -m pytest -q benchmarks/tests

They run the harness from the repository root at the reduced "smoke" size.
"""
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture(scope="module")
def refs():
    return run.References()


def _smoke(workload, out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    return run.invocations(workload, 5, out_dir, smoke=True)


def test_traced_and_untraced_csv_are_byte_identical(refs):
    env, _ = run.child_env()
    tables = {}
    for trace in (False, True):
        out_dir = run.OUT_ROOT / "test-trace" / str(int(trace))
        invs = _smoke("analytic-sweep", out_dir)
        result, report = run.run_rep(invs, trace, out_dir, "rep", env, refs)
        assert report.correct, (report.wrong, report.problems)
        tables[trace] = [Path(inv.csv).read_bytes() for inv in invs]
        if trace:
            assert result["trace"]["functions"]["numerics.integrate"]["calls"] > 0
    assert tables[False] == tables[True]


def test_perturbed_cell_is_counted_as_failed(refs):
    env, _ = run.child_env()
    out_dir = run.OUT_ROOT / "test-perturb"
    (inv,) = _smoke("tightness-fig6", out_dir)
    result, clean = run.run_rep([inv], False, out_dir, "rep", env, refs)
    assert clean.correct and clean.failed == 0

    lines = Path(inv.csv).read_text().splitlines()
    header = lines[1].split(",")
    for column in ("c_opt_analytic", "c_ian_simulated"):
        cells = lines[2].split(",")
        j = header.index(column)
        cells[j] = repr(float(cells[j]) * 1.5)
        lines[2] = ",".join(cells)
    Path(inv.csv).write_text("\n".join(lines) + "\n")

    report = run.CheckReport()
    run.check_invocation(inv, result["exit_codes"][0], refs, report)
    assert report.attempted == clean.attempted
    # the two perturbed cells, and c_ian_simulated also breaks ratio_simulated
    assert report.failed == 3
    assert len(report.wrong) == 3 and not report.correct


def test_zeroed_tiny_cell_is_counted_as_failed(refs):
    # at alpha = 20 and lambda ~ 21.5 cognitive_ian is ~6e-11, far below the
    # absolute term of the tolerance; only the relative cap can catch it
    env, _ = run.child_env()
    out_dir = run.OUT_ROOT / "test-tiny"
    inv = _smoke("analytic-sweep", out_dir)[-1]
    assert inv.alpha == 20.0
    result, clean = run.run_rep([inv], False, out_dir, "rep", env, refs)
    assert clean.correct

    lines = Path(inv.csv).read_text().splitlines()
    j = lines[1].split(",").index("cognitive_ian")
    (i,) = [i for i, line in enumerate(lines[2:], 2)
            if 0.0 < float(line.split(",")[j]) < 1e-9 and float(line.split(",")[0]) < 100.0]
    cells = lines[i].split(",")
    cells[j] = "0.0"
    lines[i] = ",".join(cells)
    Path(inv.csv).write_text("\n".join(lines) + "\n")

    report = run.CheckReport()
    run.check_invocation(inv, result["exit_codes"][0], refs, report)
    assert report.failed == clean.failed + 1
    assert report.nan_cells == clean.nan_cells and not report.correct


def test_nan_cell_needs_exit_code_one(refs):
    env, _ = run.child_env()
    out_dir = run.OUT_ROOT / "test-nan"
    (inv,) = _smoke("simulate-sweep", out_dir)
    result, clean = run.run_rep([inv], False, out_dir, "rep", env, refs)
    assert clean.correct and clean.failed == 0
    lines = Path(inv.csv).read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "nan"
    lines[2] = ",".join(cells)
    Path(inv.csv).write_text("\n".join(lines) + "\n")
    silent, reported = run.CheckReport(), run.CheckReport()
    run.check_invocation(inv, 0, refs, silent)
    run.check_invocation(inv, 1, refs, reported)
    assert silent.failed == reported.failed == 1
    assert not silent.correct and reported.correct


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes(workload):
    line, facts = run.run_workload(workload, seed=11, seconds=0, trace=True, smoke=True)
    specs = run.load_metric_specs()
    assert line["correct"], facts
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in specs["per_layer"]}
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    if workload == "analytic-sweep":
        # the known opt.lower_bound overflow at lambda = 1000, once per alpha
        assert facts["nan_cells_per_rep"] == len(run.ANALYTIC_ALPHAS)
        assert line["failed"] == facts["nan_cells_per_rep"] * (facts["samples"]["wall_s"] + 1)
        assert line["metrics"]["opt.lower_bound.failed"]["value"] == len(run.ANALYTIC_ALPHAS)
    else:
        assert line["failed"] == 0
        assert line["metrics"]["simulation.realizations"]["value"] > 0
    json.dumps(line, allow_nan=False)


def test_end_to_end_metrics_and_facts():
    line, facts = run.run_workload("simulate-sweep", seed=2, seconds=0, trace=False, smoke=True)
    specs = run.load_metric_specs()
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in specs["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert facts["samples"]["setup_s"] == run.MIN_SETUP_SAMPLES
    assert facts["pppt_threads"] == str(facts["affinity_cpus"])
