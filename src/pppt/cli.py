"""Command-line experiment harness.

Subcommands: pdf, sweep, figures, simulate, optimal-density, compare.
Output is CSV, or its JSON mirror under ``--format json``.  The first CSV
line, ``# pppt <version> | key=value ...`` (``meta.request`` in JSON),
echoes the request: every parsed argument but the destination (``--out``,
``--out-dir``, ``--format``), with the defaults a command resolves itself
and a figure's fixed definition in their place.
All randomness flows from ``--seed`` (default 0); nothing reads the clock.
A sweep or figure table is a list of (column names, cell) groups, built by
the command that owns the parameters; the cells run one after another and
the table is written once, in grid order.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, fixed_rate, ian, opt, simulation
from .model import DecodingRule, NetworkConfig

_RULES = tuple(rule.value for rule in DecodingRule)
_CLOSED_FORMS = {DecodingRule.IAN: ian, DecodingRule.OPT: opt}  # each rule's closed forms
_METHODS = ("cognitive", "fixed", "bounds", "simulate")


def _fmt(v) -> str:
    if isinstance(v, float):
        return "nan" if math.isnan(v) else format(v, ".12g")
    return str(v)


def _emit(args, header: list[str], rows: list[list], out: str | None = None,
          **resolved) -> None:
    """Write the table, echoing the parsed arguments updated by ``resolved``."""
    out = args.out if out is None else out
    request = {k: v for k, v in vars(args).items()
               if k not in ("out", "out_dir", "format", "func")} | resolved
    if args.format == "json":
        # JSON has no inf or nan; an unread anchor may be either
        request = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                   for k, v in request.items()}
        payload = {
            "meta": {"tool": f"pppt {__version__}", "request": request},
            "columns": header,
            "rows": [[None if isinstance(v, float) and math.isnan(v) else v for v in row]
                     for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        echo = " ".join(f"{k}={'+'.join(v) if isinstance(v, list) else v}"
                        for k, v in request.items())
        lines = [f"# pppt {__version__} | {echo}", ",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _grid(lo: float, hi: float, points: int, log: bool, flag: str) -> np.ndarray:
    """``points`` >= 2 values from ``lo`` to ``hi``, log-spaced if ``log``.
    The bounds must be finite, in increasing order, a finite span apart,
    and positive on a log grid; elsewhere numpy would warn and fill the
    cells with NaN or inf."""
    if points < 2:
        raise ValueError("--points must be >= 2")
    floor = 0.0 if log else -math.inf
    if not (floor < lo < math.inf and floor < hi < math.inf):
        raise ValueError(f"--{flag}-min and --{flag}-max must be finite"
                         + (" and > 0 on a log grid" if log else "") + f", got {lo} and {hi}")
    if not lo < hi:
        raise ValueError(f"--{flag}-min must be below --{flag}-max, got {lo} and {hi}")
    if hi - lo == math.inf:  # a linear grid's step would overflow
        raise ValueError(f"--{flag}-max - --{flag}-min overflows a double, got {hi} - {lo}")
    return (np.geomspace if log else np.linspace)(lo, hi, points)


def _cfg(args) -> NetworkConfig:
    return NetworkConfig(lam=args.lam, d=args.d, alpha=args.alpha)


# ------------------------------------------------------------------ pdf

def _cmd_pdf(args) -> int:
    if args.n is not None and args.rule != "opt":
        raise ValueError("--n applies to --rule opt only")
    xs = _grid(args.x_min, args.x_max, args.points, args.grid_log, "x")
    cfg = _cfg(args)
    mod = _CLOSED_FORMS[DecodingRule(args.rule)]
    dens = np.asarray(mod.pdf_rate(cfg, xs) if args.n is None
                      else opt.pdf_rate_conditional(cfg, args.n, xs))
    _emit(args, ["x", "density"], [[float(x), float(p)] for x, p in zip(xs, dens)])
    with np.errstate(over="ignore"):  # a tall peak on a coarse grid: mass inf, no warning
        mass = float(np.sum((dens[1:] + dens[:-1]) * np.diff(xs))) / 2.0
    if mass < 0.5:  # the law lies off the grid, as on the default one at large mu
        # E[R] at lam near 1 and the same mu, so lam * E[R] cannot overflow
        e = math.frexp(cfg.lam)[1] // 2 * 2
        unit = NetworkConfig(math.ldexp(cfg.lam, -e), math.ldexp(cfg.d, e // 2), cfg.alpha)
        mean = (opt.conditional_mean_rate(cfg, args.n) if args.n is not None
                else mod.cognitive_throughput(unit).value / unit.lam)
        print(f"warning: the x grid carries {mass:.3g} of the rate law's mass; its mean is "
              f"{mean:.6g} bits/s/Hz, set --x-min and --x-max around it", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- sweep

def _analytic_groups(names, y_ian: float, y_opt: float) -> list:
    """One-column groups of the analytic throughputs among ``names`` (there is
    no asymptote_opt); a lower bound reads its rate anchor only when it runs."""
    cells = {"asymptote_ian": lambda cfg: (ian.asymptote(cfg).value,)}
    anchors = {DecodingRule.IAN: y_ian, DecodingRule.OPT: y_opt}
    for rule, mod in _CLOSED_FORMS.items():
        name, y = rule.value, anchors[rule]
        cells |= {
            f"cognitive_{name}": lambda cfg, mod=mod: (mod.cognitive_throughput(cfg).value,),
            f"fixed_{name}": lambda cfg, rule=rule:
                (fixed_rate.highest_throughput(cfg, rule).throughput.value,),
            f"lower_{name}": lambda cfg, mod=mod, y=y: (mod.lower_bound(cfg, y).value,),
            f"upper_{name}": lambda cfg, mod=mod: (mod.upper_bound(cfg).value,),
        }
    return [((name,), cells[name]) for name in names if name in cells]


def _sweep(grid, d, alpha, groups):
    """Evaluate every (lambda, column group) cell in grid order: the header,
    the rows and whether a cell failed.  ``groups`` lists (names, cell)
    pairs; ``cell(cfg)`` returns the values of the columns ``names``.  A
    numerical failure leaves NaN and one warning per column; invalid input
    raises from the first cell that reads it."""
    # Python floats: a throughput past the double range is inf, not a numpy warning
    cfgs = [NetworkConfig(lam, d, alpha) for lam in grid.tolist()]  # invalid: a usage error
    rows, failed = [], False
    for cfg in cfgs:
        row = [cfg.lam]
        for names, cell in groups:
            try:
                row += [float(v) for v in cell(cfg)]
            except ArithmeticError as exc:
                for name in names:
                    print(f"warning: cell lam={cfg.lam:g} {name}: {exc}", file=sys.stderr)
                row += [math.nan] * len(names)
                failed = True
        rows.append(row)
    return ["lambda"] + [name for names, _ in groups for name in names], rows, failed


def _cmd_sweep(args) -> int:
    rules = args.rule or ["ian", "opt"]
    methods = args.method or ["cognitive"]

    def simulated(cfg, rule):  # one sampling pass gives the mean and its stderr
        est = simulation.estimate_cognitive(
            cfg, rule, mode=args.mode, n_realizations=args.realizations, seed=args.seed)
        return est.mean, est.stderr

    groups = []
    for method in methods:
        for rule in rules:
            if method == "simulate":
                groups.append(((f"sim_{rule}", f"sim_{rule}_stderr"),
                               lambda cfg, rule=DecodingRule(rule): simulated(cfg, rule)))
            else:
                kinds = ("lower", "upper", "asymptote") if method == "bounds" else (method,)
                groups += _analytic_groups([f"{k}_{rule}" for k in kinds], args.y_ian, args.y_opt)
    grid = _grid(args.lambda_min, args.lambda_max, args.points, args.log, "lambda")
    header, rows, failed = _sweep(grid, args.d, args.alpha, groups)
    _emit(args, header, rows, rule=rules, method=methods)
    return int(failed)


# -------------------------------------------------------------- figures

# every figure is a sweep at these values; figures 2-5 read the rate anchors,
# and fig 3 sets the throughput next to the bound it approaches
_FIGURE = {"lambda_min": 0.01, "lambda_max": 10.0, "log": True, "d": 1.0, "alpha": 4.0,
           "y_ian": 1.0, "y_opt": 2.0}
_FIGURE_COLUMNS = {
    2: ("cognitive_ian", "lower_ian", "upper_ian", "asymptote_ian"),
    3: ("cognitive_opt", "upper_opt"),
    4: ("cognitive_opt", "lower_opt", "upper_opt"),
    5: ("cognitive_ian", "cognitive_opt", "fixed_ian", "fixed_opt"),
    6: ("c_ian_analytic", "c_opt_analytic", "c_ian_simulated", "c_ian_stderr",
        "c_opt_simulated", "c_opt_stderr", "ratio_analytic", "ratio_simulated"),
}


def _cmd_figures(args) -> int:
    fig, columns, f = args.fig, _FIGURE_COLUMNS[args.fig], _FIGURE
    points = (10 if fig == 6 else 30) if args.points is None else args.points
    if fig == 6:  # analytic vs full-interference simulation, one tightness_report row per density
        def tightness(cfg):
            row, = simulation.tightness_report([cfg], n_realizations=args.realizations,
                                               seed=args.seed)
            return [row[name] for name in columns]
        groups = [(columns, tightness)]
    else:
        groups = _analytic_groups(columns, f["y_ian"], f["y_opt"])
    grid = _grid(f["lambda_min"], f["lambda_max"], points, f["log"], "lambda")
    header, rows, failed = _sweep(grid, f["d"], f["alpha"], groups)
    os.makedirs(args.out_dir, exist_ok=True)  # after the cells: a usage error leaves nothing
    _emit(args, header, rows, out=os.path.join(args.out_dir, f"fig{fig}.{args.format}"),
          points=points, **f)
    return int(failed)


# ------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    cfg = _cfg(args)
    if args.method == "cognitive":
        est = simulation.estimate_cognitive(
            cfg, args.rule, mode=args.mode, n_realizations=args.realizations, seed=args.seed)
    else:
        sol = fixed_rate.highest_throughput(cfg, args.rule)
        est = simulation.estimate_fixed_rate(
            cfg, sol, n_realizations=args.realizations, seed=args.seed, mode=args.mode)
    _emit(args, ["mean", "stderr", "n_realizations", "seed", "interference_mode"],
          [[est.mean, est.stderr, args.realizations, args.seed, args.mode]])
    return 0


# ------------------------------------------------- optimal-density, compare

def _cmd_optimal_density(args) -> int:
    lam_star, tv = ian.optimal_density(args.d, args.alpha)
    _emit(args, ["lambda_star", "throughput"], [[lam_star, tv.value]])
    return 0


def _cmd_compare(args) -> int:
    report = fixed_rate.compare_cognitive_vs_fixed(_cfg(args))
    keys = ["c_ian", "t_ian", "c_opt", "t_opt", "gap_ian", "gap_opt"]
    _emit(args, keys, [[report[k] for k in keys]])
    return 0


# ---------------------------------------------------------------- parser

def _add_common(p, *, lam=False, out=True):
    p.add_argument("--d", type=float, default=1.0, help="TX-RX distance in meters")
    p.add_argument("--alpha", type=float, default=4.0, help="path-loss exponent (> 2)")
    if lam:
        p.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="transmitter density in nodes/m^2")
    if out:
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_sim_flags(p):
    p.add_argument("--realizations", type=int, default=10_000, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="base seed for all randomness (default 0, never the clock)")
    p.add_argument("--mode", choices=sorted(simulation._INTERFERENCE_MODES), default="full",
                   help="aggregate interference or nearest interferer only")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pppt",
        description="Spatial throughput of bipolar Poisson networks: "
                    "closed forms, bounds, optimizers, and Monte Carlo checks.",
    )
    parser.add_argument("--version", action="version", version=f"pppt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pdf", help="rate density on a grid")
    p.add_argument("--rule", choices=_RULES, required=True)
    p.add_argument("--n", type=int, default=None,
                   help="joint-decode count for the conditional density (opt only)")
    p.add_argument("--x-min", type=float, default=0.05)
    p.add_argument("--x-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--grid-log", action="store_true", help="log-spaced x grid")
    _add_common(p, lam=True)
    p.set_defaults(func=_cmd_pdf)

    p = sub.add_parser("sweep", help="throughput columns over a density grid")
    p.add_argument("--lambda-min", type=float, default=0.01)
    p.add_argument("--lambda-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=30)
    p.add_argument("--log", action=argparse.BooleanOptionalAction, default=True,
                   help="log-spaced density grid (default)")
    p.add_argument("--rule", action="append", choices=_RULES,
                   help="repeatable; default both")
    p.add_argument("--method", action="append", choices=_METHODS,
                   help="repeatable; default cognitive")
    p.add_argument("--y-ian", type=float, default=1.0,
                   help="rate anchor of the lower bound, interference as noise")
    p.add_argument("--y-opt", type=float, default=2.0,
                   help="rate anchor of the lower bound, joint decoding")
    _add_sim_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figures", help="pinned-parameter datasets (d=1, alpha=4)")
    p.add_argument("--fig", type=int, choices=(2, 3, 4, 5, 6), required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--realizations", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("simulate", help="Monte Carlo throughput estimate")
    p.add_argument("--rule", choices=_RULES, required=True)
    p.add_argument("--method", choices=("cognitive", "fixed"), default="cognitive")
    _add_sim_flags(p)
    _add_common(p, lam=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("optimal-density", help="density maximizing the IAN throughput")
    _add_common(p)
    p.set_defaults(func=_cmd_optimal_density)

    p = sub.add_parser("compare", help="cognitive vs fixed-rate at one density")
    _add_common(p, lam=True)
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # usage and I/O errors exit 2, numerical failures (QuadratureError, BracketError) 1
        return 2 if isinstance(exc, (OSError, ValueError)) else 1


if __name__ == "__main__":
    sys.exit(main())
