import json
import math
import warnings

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


class TestSweep:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--lambda-min", "0.05", "--lambda-max", "2", "--points", "4",
                "--rule", "ian", "--method", "cognitive", "--method", "bounds"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

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
        for stats in passes:  # a shared pass cannot be written through
            assert not any(getattr(stats, f).flags.writeable
                           for f in ("s_dec", "s_far", "n_dec", "r2_min", "r2_far_min"))
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
        # at alpha = 1000 the ring's mean and the far powers underflow to 0:
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
        meta = (tmp_path / "fig4.csv").read_text().splitlines()[0]
        assert "y=2" in meta

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
