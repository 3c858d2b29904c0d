import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pppt import ian, opt, simulation
from pppt.cli import main
from pppt.model import DecodingRule, NetworkConfig
from pppt.numerics import QuadratureError


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# pppt ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def echo(path):
    """The request fields of a table's first line, as strings."""
    line = path.read_text().splitlines()[0]
    return dict(field.split("=", 1) for field in line.split(" | ", 1)[1].split())


def column(header, rows, name, as_float=True):
    j = header.index(name)
    return [float(r[j]) if as_float else r[j] for r in rows]


class TestPdf:
    def test_known_value_at_one(self, tmp_path):
        out = tmp_path / "pdf.csv"
        rc = main(["pdf", "--rule", "ian", "--alpha", "4", "--d", "1",
                   "--lambda", str(1 / math.pi), "--x-min", "0.5", "--x-max", "1.5",
                   "--points", "3", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        xs = column(header, rows, "x")
        dens = column(header, rows, "density")
        assert xs[1] == pytest.approx(1.0)
        assert dens[1] == pytest.approx(math.log(4.0) / (2.0 * math.e), rel=1e-9)

    def test_conditional_support_zeroed(self, tmp_path):
        out = tmp_path / "pdf.csv"
        rc = main(["pdf", "--rule", "opt", "--n", "1", "--lambda", "0.3183",
                   "--x-min", "0.5", "--x-max", "0.79", "--points", "5", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_trapezoid_normalization(self, tmp_path):
        out = tmp_path / "pdf.csv"
        rc = main(["pdf", "--rule", "ian", "--lambda", str(1 / math.pi),
                   "--x-min", "1e-8", "--x-max", "30", "--points", "4000",
                   "--grid-log", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        xs = np.array(column(header, rows, "x"))
        dens = np.array(column(header, rows, "density"))
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-3)

    def test_opt_mixture_without_count(self, tmp_path):
        out = tmp_path / "pdf.csv"
        rc = main(["pdf", "--rule", "opt", "--lambda", "0.3", "--x-min", "0.5",
                   "--x-max", "4", "--points", "8", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        xs = np.array(column(header, rows, "x"))
        want = opt.pdf_rate(NetworkConfig(0.3, 1.0, 4.0), xs)
        np.testing.assert_array_equal(column(header, rows, "density"),
                                      [float(format(v, ".12g")) for v in want])

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "pdf.json"
        rc = main(["pdf", "--rule", "ian", "--lambda", "1.0", "--points", "4",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["x", "density"]
        assert len(payload["rows"]) == 4
        assert payload["meta"]["tool"].startswith("pppt ")

    @pytest.mark.parametrize("argv", [
        ["--grid-log", "--x-min", "-1"],
        ["--x-max", "inf"],
        ["--n", "3"],
        ["--points", "0"],
    ], ids=["log-x-negative", "x-infinite", "n-under-ian", "no-points"])
    def test_invalid_input_is_usage_error(self, argv, tmp_path, capsys):
        # each would write a misleading table: NaN x cells, an n the
        # density ignores, or a header without rows
        out = tmp_path / "pdf.csv"
        assert main(["pdf", "--rule", "ian", "--lambda", "0.3", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_reversed_grid_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "pdf.csv"
        assert main(["pdf", "--rule", "ian", "--lambda", "0.3", "--x-min", "5", "--x-max", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --x-min must be below --x-max, got 5.0 and 1.0\n"
        assert not out.exists()

    def test_overflowing_span_is_usage_error(self, tmp_path, capsys):
        # finite bounds whose difference is past the double range: numpy's
        # linear grid would warn and write nan and inf x cells
        out = tmp_path / "pdf.csv"
        assert main(["pdf", "--rule", "ian", "--lambda", "0.3", "--x-min=-1e308",
                     "--x-max", "1e308", "--points", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --x-max - --x-min overflows a double, got 1e+308 - -1e+308\n")
        assert not out.exists()

    def test_no_mass_past_the_double_range_is_zero(self, tmp_path):
        # 10^6 * x * ln2 overflows: a SIR past the double range, density 0
        out = tmp_path / "pdf.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["pdf", "--rule", "opt", "--n", "1000000", "--lambda", "0.3183",
                       "--x-min", "1e300", "--x-max", "1e303", "--points", "2",
                       "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert column(header, rows, "density") == [0.0, 0.0]

    def test_grid_off_the_law_warns(self, tmp_path, capsys):
        # mu = 1e4: the mixture rate lies near log2(1 + mu)/mu = 1.3e-3, below
        # the default grid, which stays the default
        out = tmp_path / "pdf.csv"
        assert main(["pdf", "--rule", "opt", "--lambda", "3183", "--points", "50",
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        mean = opt.cognitive_throughput(NetworkConfig(3183.0, 1.0, 4.0)).value / 3183.0
        assert err == [f"warning: the x grid carries 0 of the rate law's mass; its mean is "
                       f"{mean:.6g} bits/s/Hz, set --x-min and --x-max around it"]
        header, rows = read_csv(out)
        assert column(header, rows, "x")[::49] == [0.05, 10.0]
        assert column(header, rows, "density") == [0.0] * 50

    @pytest.mark.parametrize("argv,mean", [
        (["--rule", "ian", "--lambda", "100", "--points", "3"],
         lambda: ian.cognitive_throughput(NetworkConfig(100.0, 1.0, 4.0)).value / 100.0),
        (["--rule", "opt", "--n", "2", "--lambda", "0.3183", "--x-max", "0.6"],
         lambda: opt.conditional_mean_rate(NetworkConfig(0.3183, 1.0, 4.0), 2)),
        # lam * E[R] is past the double range here, E[R] is not
        (["--rule", "ian", "--lambda", "1e307", "--d", "1e-158", "--x-min", "500",
          "--x-max", "600", "--points", "2"],
         lambda: ian.cognitive_throughput(
             NetworkConfig(1.0, math.sqrt(NetworkConfig(1e307, 1e-158, 4.0).mu / math.pi),
                           4.0)).value),
    ], ids=["ian", "opt-n", "lam-near-max"])
    def test_warning_names_the_mean_rate(self, argv, mean, tmp_path, capsys):
        assert main(["pdf", *argv, "--out", str(tmp_path / "pdf.csv")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: the x grid carries ")
        assert f"; its mean is {mean():.6g} bits/s/Hz," in err[0]

    @pytest.mark.parametrize("argv", [
        ["--rule", "ian", "--lambda", "0.3183", "--alpha", "4", "--d", "1"],
        ["--rule", "opt", "--n", "2", "--lambda", "0.3183"],
    ], ids=["ian", "opt-n"])
    def test_readme_commands_do_not_warn(self, argv, tmp_path, capsys):
        assert main(["pdf", *argv, "--out", str(tmp_path / "pdf.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_density_past_the_double_range_is_numerical_failure(self, tmp_path, capsys):
        # x^(2/alpha - 1) at x = 5e-324, alpha = 60 is about e^719
        out = tmp_path / "pdf.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["pdf", "--rule", "ian", "--alpha", "60", "--lambda", "0.3183",
                       "--x-min", "5e-324", "--x-max", "1e-300", "--points", "2",
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: density past the double range")
        assert not out.exists()


class TestSweep:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--lambda-min", "0.05", "--lambda-max", "2", "--points", "4",
                "--rule", "ian", "--method", "cognitive", "--method", "bounds"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--method", "cognitive", "--method", "fixed", "--method", "bounds",
         "--alpha", "4", "--lambda-min", "0.01", "--lambda-max", "1000", "--points", "6"],
        # OpenBLAS splits a gemv over threads from 9216 cells; this density's
        # (terms x points) blocks hold 34200, the sweep's largest 4884
        ["pdf", "--rule", "opt", "--lambda", "31.83", "--points", "400"],
    ], ids=["sweep", "pdf"])
    def test_one_blas_thread_changes_no_number(self, argv, tmp_path):
        # `-m pppt.cli` loads OpenBLAS with one thread; importing numpy first
        # keeps its default of one thread per CPU
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        default = "import numpy, sys; from pppt.cli import main; sys.exit(main(sys.argv[1:]))"
        outs = []
        for launch in (["-m", "pppt.cli"], ["-c", default]):
            outs.append(tmp_path / f"{len(outs)}.csv")
            proc = subprocess.run([sys.executable, *launch, *argv, "--out", str(outs[-1])],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_cognitive_dominates_fixed_rowwise(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--lambda-min", "0.05", "--lambda-max", "5", "--points", "5",
                   "--method", "cognitive", "--method", "fixed", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        for rule in ("ian", "opt"):
            c = column(header, rows, f"cognitive_{rule}")
            t = column(header, rows, f"fixed_{rule}")
            assert all(ci >= ti - 1e-9 for ci, ti in zip(c, t))

    def test_bounds_sandwich_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--lambda-min", "0.05", "--lambda-max", "2", "--points", "4",
                   "--rule", "opt", "--method", "cognitive", "--method", "bounds",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        c = column(header, rows, "cognitive_opt")
        lo = column(header, rows, "lower_opt")
        hi = column(header, rows, "upper_opt")
        assert all(l <= ci + 1e-9 <= hi + 2e-9 for l, ci, hi in zip(lo, c, hi))

    def test_one_sampling_pass_feeds_mean_and_stderr(self, tmp_path, monkeypatch):
        simulation._sample.cache_clear()  # a pass left by an earlier test would hide a draw
        calls, passes = [], []
        real = simulation.estimate_cognitive
        real_collect = simulation._collect_stats

        def counting(cfg, rule, **kwargs):
            calls.append((cfg.lam, rule))
            return real(cfg, rule, **kwargs)

        def collecting(*args):
            passes.append(real_collect(*args))
            return passes[-1]

        monkeypatch.setattr(simulation, "estimate_cognitive", counting)
        monkeypatch.setattr(simulation, "_collect_stats", collecting)
        out = tmp_path / "sim.csv"
        assert main(["sweep", "--points", "2", "--method", "simulate", "--realizations", "100",
                     "--out", str(out)]) == 0
        assert len(calls) == len(set(calls)) == 4  # 2 densities x 2 rules, one call per cell
        assert len(passes) == 2  # one draw per density feeds both rules
        for views in passes:  # a shared pass cannot be written through
            assert not any(arr.flags.writeable for view in views.values() for arr in view)
        header, rows = read_csv(out)
        assert header == ["lambda", "sim_ian", "sim_ian_stderr", "sim_opt", "sim_opt_stderr"]

    def test_failed_pass_leaves_both_cells_nan(self, tmp_path, monkeypatch, capsys):
        def fail(cfg, rule, **kwargs):
            if rule is DecodingRule.OPT:
                raise ArithmeticError("no luck")
            return real(cfg, rule, **kwargs)

        real = simulation.estimate_cognitive
        monkeypatch.setattr(simulation, "estimate_cognitive", fail)
        out = tmp_path / "sim.csv"
        assert main(["sweep", "--points", "2", "--method", "simulate", "--realizations", "100",
                     "--out", str(out)]) == 1
        header, rows = read_csv(out)
        for name in ("sim_opt", "sim_opt_stderr"):
            assert all(math.isnan(v) for v in column(header, rows, name))
        assert all(v > 0 for v in column(header, rows, "sim_ian"))
        warnings = capsys.readouterr().err.splitlines()
        assert warnings == [f"warning: cell lam={lam} {name}: no luck"
                            for lam in ("0.01", "10") for name in ("sim_opt", "sim_opt_stderr")]

    def test_bad_grid_is_usage_error(self):
        assert main(["sweep", "--lambda-min", "5", "--lambda-max", "1"]) == 2

    def test_overflowing_linear_span_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--no-log", "--lambda-min=-1e308", "--lambda-max", "1e308",
                     "--points", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --lambda-max - --lambda-min overflows a double, got 1e+308 - -1e+308\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--alpha", "2"],
        ["--d", "-1"],
        ["--no-log", "--lambda-min", "0"],
        ["--lambda-min", "-1", "--lambda-max", "1"],
        ["--method", "bounds", "--y-ian", "-1"],
        ["--method", "bounds", "--y-opt", "1"],
    ], ids=["alpha", "d", "lambda-zero", "log-lambda-negative", "y-ian", "y-opt"])
    def test_invalid_input_is_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--points", "3", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_failed_bracket_is_nan_cell(self, tmp_path, capsys):
        # valid input where the threshold's bracket has no sign change: a
        # numerical failure of the cell, not of the request
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--method", "fixed", "--rule", "ian", "--alpha", "1000",
                     "--lambda-min", "318310", "--lambda-max", "318311", "--points", "2",
                     "--out", str(out)]) == 1
        header, rows = read_csv(out)
        assert all(math.isnan(v) for v in column(header, rows, "fixed_ian"))
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("fixed_ian: no sign change" in line for line in err)

    def test_overflowed_bracket_is_nan_cell(self, tmp_path, capsys):
        # at alpha = 100 and mu ~ 1e-9 the threshold bracket doubles to inf
        # and the asymptote overflows: NaN cells, each with one warning, and
        # no numpy warning on the way
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--method", "fixed", "--method", "bounds", "--alpha", "100",
                         "--lambda-min", "3e-10", "--lambda-max", "0.3", "--points", "4",
                         "--out", str(out)]) == 1
        header, rows = read_csv(out)
        nan_cells = {(row[0], name) for row in rows for name, v in zip(header, row)
                     if math.isnan(float(v))}
        assert nan_cells == {("3e-10", "fixed_ian"), ("3e-10", "fixed_opt"),
                             ("3e-10", "asymptote_ian"), ("3e-07", "asymptote_ian")}
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4 and all(line.startswith("warning: cell lam=") for line in err)

    def test_underflowed_powers_are_nan_row(self, tmp_path, capsys):
        # at alpha = 1000 the far mean and the far powers underflow to 0:
        # at lam = 0.01 some realization has no interference and an infinite
        # rate, so both estimates fail; at lam = 1 every rate is finite
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--lambda-min", "0.01", "--lambda-max", "1", "--points", "2",
                         "--method", "simulate", "--alpha", "1000", "--realizations", "100",
                         "--out", str(out)]) == 1
        header, rows = read_csv(out)
        assert [row[0] for row in rows] == ["0.01", "1"]
        assert all(v == "nan" for v in rows[0][1:])
        assert all(math.isfinite(float(v)) and float(v) > 0 for v in rows[1][1:])
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4 and all(line.startswith("warning: cell lam=0.01 sim_") and
                                     line.endswith("mean must be finite and >= 0, got inf")
                                     for line in err)

    def test_anchor_of_unrequested_rule_not_checked(self, tmp_path):
        # --y-ian is read only by the lower_ian cells, which --rule opt skips
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--points", "3", "--method", "bounds", "--rule", "opt",
                     "--y-ian", "-1", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert header == ["lambda", "lower_opt", "upper_opt"]

    def test_throughput_past_double_range_is_nan_cell(self, tmp_path, capsys):
        # mu from 1e-9 to 5e-9, inside the domain, but lam * E[R] and the
        # Jensen bound pass the double range: a numerical failure of those
        # cells, with no numpy warning on the way
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--lambda-min", "3.2e306", "--lambda-max", "1.6e307",
                         "--d", "1e-158", "--points", "2", "--rule", "ian",
                         "--method", "cognitive", "--method", "bounds", "--out", str(out)]) == 1
        header, rows = read_csv(out)
        assert len(rows) == 2
        for name in ("cognitive_ian", "upper_ian", "asymptote_ian"):
            assert all(math.isnan(v) for v in column(header, rows, name))
        assert column(header, rows, "lower_ian") == pytest.approx([3.2e306, 1.6e307], rel=1e-8)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 6 and all(line.startswith("warning: cell lam=") for line in err)

    def test_bounds_past_double_range_of_sir(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--points", "3", "--method", "bounds", "--rule", "ian",
                     "--y-ian", "2000", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert all(v >= 0 for v in column(header, rows, "lower_ian"))

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--frequency", "2.4GHz"])
        assert exc.value.code == 2


class TestHeaders:
    """The column order the README documents, pinned exactly."""

    @pytest.mark.parametrize("fig,columns", [
        (2, ["cognitive_ian", "lower_ian", "upper_ian", "asymptote_ian"]),
        (3, ["cognitive_opt", "upper_opt"]),
        (4, ["cognitive_opt", "lower_opt", "upper_opt"]),
        (5, ["cognitive_ian", "cognitive_opt", "fixed_ian", "fixed_opt"]),
        (6, ["c_ian_analytic", "c_opt_analytic", "c_ian_simulated", "c_ian_stderr",
             "c_opt_simulated", "c_opt_stderr", "ratio_analytic", "ratio_simulated"]),
    ])
    def test_figure_header(self, fig, columns, tmp_path):
        assert main(["figures", "--fig", str(fig), "--points", "2", "--realizations", "100",
                     "--out-dir", str(tmp_path)]) == 0
        header, _ = read_csv(tmp_path / f"fig{fig}.csv")
        assert header == ["lambda", *columns]

    def test_sweep_header_follows_methods_then_rules(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--points", "2", "--realizations", "100",
                     "--method", "cognitive", "--method", "fixed", "--method", "bounds",
                     "--method", "simulate", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert header == ["lambda", "cognitive_ian", "cognitive_opt", "fixed_ian", "fixed_opt",
                          "lower_ian", "upper_ian", "asymptote_ian", "lower_opt", "upper_opt",
                          "sim_ian", "sim_ian_stderr", "sim_opt", "sim_opt_stderr"]

    @pytest.mark.parametrize("method", ["cognitive", "fixed"])
    def test_simulate_header(self, method, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--rule", "opt", "--method", method, "--lambda", "0.2",
                     "--realizations", "100", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert header == ["mean", "stderr", "n_realizations", "seed", "interference_mode"]


class TestFigures:
    def test_fig4_has_lower_bound_at_y2(self, tmp_path):
        rc = main(["figures", "--fig", "4", "--points", "4", "--out-dir", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "fig4.csv")
        assert "lower_opt" in header and "upper_opt" in header
        assert echo(tmp_path / "fig4.csv")["y_opt"] == "2.0"

    def test_fig5_four_curves(self, tmp_path):
        rc = main(["figures", "--fig", "5", "--points", "3", "--out-dir", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "fig5.csv")
        for name in ("cognitive_ian", "cognitive_opt", "fixed_ian", "fixed_opt"):
            assert name in header
        c = column(header, rows, "cognitive_opt")
        t = column(header, rows, "fixed_opt")
        assert all(ci >= ti - 1e-9 for ci, ti in zip(c, t))

    def test_fig3_nondecreasing(self, tmp_path):
        rc = main(["figures", "--fig", "3", "--points", "6", "--out-dir", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "fig3.csv")
        c = column(header, rows, "cognitive_opt")
        assert all(b >= a - 1e-9 for a, b in zip(c, c[1:]))

    def test_fig6_simulation_columns(self, tmp_path):
        rc = main(["figures", "--fig", "6", "--points", "2", "--realizations", "200",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "fig6.csv")
        for name in ("c_ian_analytic", "c_ian_simulated", "c_ian_stderr",
                     "c_opt_simulated", "ratio_analytic", "ratio_simulated"):
            assert name in header
        sim_i = column(header, rows, "c_ian_simulated")
        sim_o = column(header, rows, "c_opt_simulated")
        assert all(o >= i for i, o in zip(sim_i, sim_o))

    def test_fig6_failed_row_is_nan(self, tmp_path, monkeypatch, capsys):
        def fail(cfgs, **kwargs):
            if cfgs[0].lam > 1.0:
                raise QuadratureError("did not converge", 1.0, 0.5)
            return real(cfgs, **kwargs)

        real = simulation.tightness_report
        monkeypatch.setattr(simulation, "tightness_report", fail)
        assert main(["figures", "--fig", "6", "--points", "3", "--realizations", "100",
                     "--out-dir", str(tmp_path)]) == 1
        header, rows = read_csv(tmp_path / "fig6.csv")
        assert len(header) == 9 and [r[0] for r in rows] == ["0.01", "0.316227766017", "10"]
        assert all(math.isnan(float(v)) for v in rows[2][1:])
        assert all(math.isfinite(float(v)) for r in rows[:2] for v in r)
        warnings = capsys.readouterr().err.splitlines()
        assert warnings == [f"warning: cell lam=10 {name}: did not converge "
                            "(estimate=1.0, error_bound=0.5)" for name in header[1:]]

    def test_json_output_named_by_format(self, tmp_path):
        rc = main(["figures", "--fig", "2", "--points", "3", "--format", "json",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "fig2.json").read_text())
        assert payload["columns"][0] == "lambda" and len(payload["rows"]) == 3
        assert not (tmp_path / "fig2.csv").exists()

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_too_few_points_is_usage_error(self, points, tmp_path, capsys):
        assert main(["figures", "--fig", "2", "--points", points, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: --points must be >= 2\n"
        assert not list(tmp_path.iterdir())


class TestSimulateCommand:
    def test_cognitive_estimate(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--rule", "ian", "--lambda", "0.1", "--realizations", "300",
                   "--seed", "3", "--mode", "closest", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert float(rows[0][header.index("mean")]) > 0
        echo = dict(zip(header[2:], rows[0][2:]))
        assert echo == {"n_realizations": "300", "seed": "3", "interference_mode": "closest_only"}

    def test_default_seed_is_zero(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--rule", "ian", "--lambda", "0.1", "--realizations", "200"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--seed", "0", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_fixed_method(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--rule", "opt", "--method", "fixed", "--lambda", "0.2",
                   "--realizations", "300", "--mode", "closest", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert float(rows[0][header.index("mean")]) >= 0
        echo = dict(zip(header[2:], rows[0][2:]))
        assert echo == {"n_realizations": "300", "seed": "0", "interference_mode": "closest_only"}

    def test_overflowed_window_is_numerical_failure(self, tmp_path, capsys):
        # mu ~ 9.4e-307: the default window's (W/d)^2 overflows a double
        out = tmp_path / "sim.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--rule", "ian", "--lambda", "3e-307",
                         "--realizations", "100", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the window's (W/d)^2 overflows")
        assert not out.exists()

    def test_power_accounting_flag_is_usage_error(self, capsys):
        # one power accounting, the paper's: there is nothing to select
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--rule", "opt", "--lambda", "1", "--rate-mode", "lower"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rate-mode" in capsys.readouterr().err


class TestRealizationFloor:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--rule", "ian", "--lambda", "0.1"],
        ["simulate", "--rule", "opt", "--method", "fixed", "--lambda", "0.2"],
        ["sweep", "--method", "simulate", "--points", "3"],
        ["figures", "--fig", "6", "--points", "2"],
    ], ids=["simulate", "simulate-fixed", "sweep", "figures-6"])
    def test_too_few_realizations_is_usage_error(self, argv, tmp_path, capsys):
        # a new --out-dir: the floor is checked by the first cell, and the
        # directory is made only after the last
        out = ["--out-dir", str(tmp_path / "figs")] if argv[0] == "figures" else ["--out", str(tmp_path / "x.csv")]
        assert main(argv + ["--realizations", "10"] + out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: need at least 100 realizations")
        assert "warning:" not in err  # rejected before any cell ran
        assert not list(tmp_path.iterdir())


class TestScalarCommands:
    def test_optimal_density(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert main(["optimal-density", "--alpha", "4", "--d", "1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert float(rows[0][header.index("lambda_star")]) == pytest.approx(0.245253384, rel=1e-6)

    def test_compare_gaps_nonnegative(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--lambda", "0.3183", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert float(rows[0][header.index("gap_ian")]) >= 0
        assert float(rows[0][header.index("gap_opt")]) >= 0

    @pytest.mark.parametrize("flag,value", [("--alpha", "inf"), ("--d", "1e-200"),
                                            ("--d", "1e200"), ("--d", "1e160"), ("--d", "inf")])
    def test_optimal_density_usage_errors(self, flag, value, capsys):
        assert main(["optimal-density", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        # lam* overflows, underflows or is subnormal (1e160): blame d, not lam
        if value in ("1e-200", "1e200", "1e160"):
            assert f"at d = {float(value)}" in err

    @pytest.mark.parametrize("lam", ["1e20", "1e300"])
    def test_compare_density_past_mu_bound(self, lam, capsys):
        # numpy's size error at 1e20, its divide-by-zero warning at 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", "--lambda", lam]) == 2
        assert capsys.readouterr().err.startswith("error: mu = lam*pi*d^2 must be <= 1e7")

    @pytest.mark.parametrize("argv", [
        ["compare", "--lambda", "1e-300", "--d", "1e-100"],
        ["compare", "--lambda", "1e-300", "--d", "1e-12"],
        ["pdf", "--rule", "opt", "--lambda", "1e-300", "--d", "1e-100"],
        ["simulate", "--rule", "ian", "--lambda", "1e-300", "--d", "1e-100",
         "--realizations", "100"],
    ], ids=["compare-zero", "compare-subnormal", "pdf", "simulate"])
    def test_underflowed_mu_is_usage_error(self, argv, tmp_path, capsys):
        # mu = lam*pi*d^2 underflows to 0, or to a subnormal at d = 1e-12
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: mu = lam*pi*d^2 must be a normal double")
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["optimal-density", "--alpha", "2.0001"],
         "stationarity residual has no sign change on the density bracket"),
        (["compare", "--alpha", "1000", "--lambda", "318310"], "no sign change on ["),
    ], ids=["optimal-density", "compare"])
    def test_failed_bracket_is_numerical_failure(self, argv, message, tmp_path, capsys):
        # both inputs are in the domain; the residual, not the input, fails
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not out.exists()

    def test_io_failure_exit_code(self, tmp_path):
        assert main(["compare", "--lambda", "1.0",
                     "--out", str(tmp_path / "missing" / "cmp.csv")]) == 2

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def fail(d, alpha):
            raise QuadratureError("did not converge", 1.0, 0.5)

        monkeypatch.setattr(ian, "optimal_density", fail)
        assert main(["optimal-density", "--alpha", "4"]) == 1
        assert capsys.readouterr().err.startswith("error: did not converge")


class TestProvenance:
    """The first line echoes every value the numbers depend on, and nothing
    of where the table went."""

    BASE = {
        "pdf": ["pdf", "--rule", "opt", "--lambda", "0.3", "--points", "3"],
        "sweep": ["sweep", "--points", "2", "--rule", "ian"],
        "figures": ["figures", "--fig", "6", "--points", "2", "--realizations", "100"],
        "simulate": ["simulate", "--rule", "ian", "--lambda", "0.1", "--realizations", "100"],
        "optimal-density": ["optimal-density"],
        "compare": ["compare", "--lambda", "0.3"],
    }

    @staticmethod
    def run(argv, tmp_path, name):
        """Run ``argv`` writing under ``tmp_path/name``; the table's path."""
        if argv[0] == "figures":
            assert main(argv + ["--out-dir", str(tmp_path / name)]) == 0
            fmt = "json" if "json" in argv else "csv"
            return tmp_path / name / f"fig{argv[2]}.{fmt}"
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        return tmp_path / name

    CHANGES = [
        ("pdf", ["--grid-log"]),
        ("pdf", ["--n", "2"]),
        ("pdf", ["--x-max", "5"]),
        ("sweep", ["--mode", "closest"]),
        ("sweep", ["--y-ian", "2"]),
        ("sweep", ["--y-opt", "3"]),
        ("sweep", ["--no-log"]),
        ("sweep", ["--seed", "1"]),
        ("figures", ["--realizations", "200"]),
        ("figures", ["--seed", "1"]),
        ("simulate", ["--mode", "closest"]),
        ("simulate", ["--method", "fixed"]),
        ("optimal-density", ["--alpha", "3"]),
        ("compare", ["--d", "2"]),
    ]

    @pytest.mark.parametrize("command,change", CHANGES,
                             ids=["_".join([c, *ch]) for c, ch in CHANGES])
    def test_value_changing_flag_changes_first_line(self, command, change, tmp_path):
        base = self.run(self.BASE[command], tmp_path, "a").read_text().splitlines()[0]
        changed = self.run(self.BASE[command] + change, tmp_path, "b").read_text().splitlines()[0]
        assert base != changed
        assert str(tmp_path) not in base + changed

    @pytest.mark.parametrize("command", list(BASE))
    def test_destination_is_not_echoed(self, command, tmp_path):
        a = self.run(self.BASE[command], tmp_path, "a")
        b = self.run(self.BASE[command], tmp_path, "b")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", list(BASE))
    def test_json_request_mirrors_csv_echo(self, command, tmp_path):
        fields = echo(self.run(self.BASE[command], tmp_path, "a"))
        payload = json.loads(self.run(self.BASE[command] + ["--format", "json"],
                                      tmp_path, "b").read_text())
        request = payload["meta"]["request"]
        assert {k: "+".join(v) if isinstance(v, list) else str(v)
                for k, v in request.items()} == fields

    def test_json_request_is_strict_json(self, tmp_path):
        # an anchor of a rule that was not requested is not checked
        argv = ["sweep", "--points", "2", "--rule", "ian", "--y-opt", "inf", "--format", "json"]
        text = self.run(argv, tmp_path, "a").read_text()

        def reject(constant):
            raise ValueError(constant)

        assert json.loads(text, parse_constant=reject)["meta"]["request"]["y_opt"] == "inf"

    def test_resolved_defaults_are_echoed(self, tmp_path):
        sweep = echo(self.run(["sweep", "--points", "2"], tmp_path, "a"))
        assert sweep["rule"] == "ian+opt" and sweep["method"] == "cognitive"
        fig = echo(self.run(["figures", "--fig", "2"], tmp_path, "b"))
        assert {k: fig[k] for k in ("points", "d", "alpha", "lambda_min", "lambda_max")} == {
            "points": "30", "d": "1.0", "alpha": "4.0", "lambda_min": "0.01", "lambda_max": "10.0"}
