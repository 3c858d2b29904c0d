"""Command-line experiment harness.

Subcommands: pdf, sweep, figures, simulate, optimal-density, compare.
Output is CSV with one leading ``#`` metadata line (tool version plus an
echo of the request), or a JSON mirror via ``--format json``.  All
randomness flows from ``--seed`` (default 0); nothing reads the clock.
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

_RULES = {"ian": DecodingRule.IAN, "opt": DecodingRule.OPT}
_MODES = {"full": "full", "closest": "closest_only"}
_METHODS = ("cognitive", "fixed", "bounds", "simulate")


def _fmt(v) -> str:
    if isinstance(v, float):
        return "nan" if math.isnan(v) else format(v, ".12g")
    return str(v)


def _emit(args, meta: str, header: list[str], rows: list[list], out: str | None = None) -> None:
    out = args.out if out is None else out
    if args.format == "json":
        payload = {
            "meta": {"tool": f"pppt {__version__}", "request": meta},
            "columns": header,
            "rows": [[None if isinstance(v, float) and math.isnan(v) else v for v in row]
                     for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# pppt {__version__} | {meta}", ",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _grid(lo: float, hi: float, points: int, log: bool, flag: str) -> np.ndarray:
    """``points`` >= 2 values from ``lo`` to ``hi``, log-spaced if ``log``.
    The bounds must be finite, and positive on a log grid, where numpy
    would warn and fill the cells with NaN."""
    if points < 2:
        raise ValueError("--points must be >= 2")
    floor = 0.0 if log else -math.inf
    if not (floor < lo < math.inf and floor < hi < math.inf):
        raise ValueError(f"--{flag}-min and --{flag}-max must be finite"
                         + (" and > 0 on a log grid" if log else "") + f", got {lo} and {hi}")
    return (np.geomspace if log else np.linspace)(lo, hi, points)


def _cfg(args) -> NetworkConfig:
    return NetworkConfig(lam=args.lam, d=args.d, alpha=args.alpha)


# ------------------------------------------------------------------ pdf

def _cmd_pdf(args) -> int:
    if args.n is not None and args.rule != "opt":
        raise ValueError("--n applies to --rule opt only")
    xs = _grid(args.x_min, args.x_max, args.points, args.grid_log, "x")
    cfg = _cfg(args)
    rule = _RULES[args.rule]
    if rule is DecodingRule.IAN:
        dens = np.asarray(ian.pdf_rate(cfg, xs))
        what = "ian rate pdf"
    elif args.n is not None:
        dens = np.asarray(opt.pdf_rate_conditional(cfg, args.n, xs))
        what = f"opt rate pdf given {args.n} jointly decoded interferers"
    else:
        dens = np.asarray(opt.pdf_rate(cfg, xs))
        what = "opt rate pdf (mixture)"
    meta = (f"pdf rule={args.rule} lam={cfg.lam} d={cfg.d} alpha={cfg.alpha} "
            f"n={args.n} grid=[{args.x_min},{args.x_max}]x{args.points} ({what})")
    _emit(args, meta, ["x", "density"], [[float(x), float(p)] for x, p in zip(xs, dens)])
    return 0


# ---------------------------------------------------------------- sweep

def _analytic_groups(names, y_ian: float, y_opt: float) -> list:
    """One-column groups of the analytic throughputs among ``names`` (there is
    no asymptote_opt); a lower bound reads its rate anchor only when it runs."""
    cells = {"asymptote_ian": lambda cfg: (ian.asymptote(cfg).value,)}
    for name, mod, y in (("ian", ian, y_ian), ("opt", opt, y_opt)):
        cells |= {
            f"cognitive_{name}": lambda cfg, mod=mod: (mod.cognitive_throughput(cfg).value,),
            f"fixed_{name}": lambda cfg, rule=_RULES[name]:
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
    if not args.lambda_min < args.lambda_max:
        raise ValueError("--lambda-min must be below --lambda-max")
    rules = args.rule or ["ian", "opt"]
    methods = args.method or ["cognitive"]

    def simulated(cfg, rule):  # one sampling pass gives the mean and its stderr
        est = simulation.estimate_cognitive(
            cfg, rule, mode=_MODES[args.mode], n_realizations=args.realizations,
            seed=args.seed)
        return est.mean, est.stderr

    groups = []
    for method in methods:
        for rule in rules:
            if method == "simulate":
                groups.append(((f"sim_{rule}", f"sim_{rule}_stderr"),
                               lambda cfg, rule=_RULES[rule]: simulated(cfg, rule)))
            else:
                kinds = ("lower", "upper", "asymptote") if method == "bounds" else (method,)
                groups += _analytic_groups([f"{k}_{rule}" for k in kinds], args.y_ian, args.y_opt)
    grid = _grid(args.lambda_min, args.lambda_max, args.points, args.log, "lambda")
    header, rows, failed = _sweep(grid, args.d, args.alpha, groups)
    meta = (f"sweep lambda=[{args.lambda_min},{args.lambda_max}]x{args.points} "
            f"scale={'log' if args.log else 'linear'} d={args.d} alpha={args.alpha} "
            f"rules={'+'.join(rules)} methods={'+'.join(methods)} "
            f"realizations={args.realizations} seed={args.seed}")
    _emit(args, meta, header, rows)
    return int(failed)


# -------------------------------------------------------------- figures

# every figure at d = 1, alpha = 4; figures 2-5 take the rate anchors y_ian = 1
# and y_opt = 2, and fig 3 sets the throughput next to the bound it approaches
_FIGURE_COLUMNS = {
    2: ("cognitive_ian", "lower_ian", "upper_ian", "asymptote_ian"),
    3: ("cognitive_opt", "upper_opt"),
    4: ("cognitive_opt", "lower_opt", "upper_opt"),
    5: ("cognitive_ian", "cognitive_opt", "fixed_ian", "fixed_opt"),
    6: ("c_ian_analytic", "c_opt_analytic", "c_ian_simulated", "c_ian_stderr",
        "c_opt_simulated", "c_opt_stderr", "ratio_analytic", "ratio_simulated"),
}


def _cmd_figures(args) -> int:
    fig, columns = args.fig, _FIGURE_COLUMNS[args.fig]
    points = (10 if fig == 6 else 30) if args.points is None else args.points
    if fig == 6:  # analytic vs full-interference simulation, one tightness_report row per density
        def tightness(cfg):
            row, = simulation.tightness_report([cfg], n_realizations=args.realizations,
                                               seed=args.seed)
            return [row[name] for name in columns]
        groups = [(columns, tightness)]
    else:
        groups = _analytic_groups(columns, 1.0, 2.0)
    header, rows, failed = _sweep(_grid(0.01, 10.0, points, True, "lambda"), 1.0, 4.0, groups)
    os.makedirs(args.out_dir, exist_ok=True)  # after the cells: a usage error leaves nothing
    meta = (f"figure {fig} d=1 alpha=4 grid=[0.01,10]x{points} log "
            + {2: "lower bound at y=1 ", 4: "lower bound at y=2 ",
               6: f"realizations={args.realizations} "}.get(fig, "")
            + f"seed={args.seed}" + (" rate_mode=lower" if fig == 6 else ""))
    _emit(args, meta, header, rows, out=os.path.join(args.out_dir, f"fig{fig}.{args.format}"))
    return int(failed)


# ------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    cfg = _cfg(args)
    rule = _RULES[args.rule]
    mode = _MODES[args.mode]
    if args.method == "cognitive":
        est = simulation.estimate_cognitive(
            cfg, rule, mode=mode, n_realizations=args.realizations, seed=args.seed)
    else:
        sol = fixed_rate.highest_throughput(cfg, rule)
        est = simulation.estimate_fixed_rate(
            cfg, sol, n_realizations=args.realizations, seed=args.seed, mode=mode)
    meta = (f"simulate method={args.method} rule={args.rule} lam={cfg.lam} d={cfg.d} "
            f"alpha={cfg.alpha} mode={args.mode} realizations={args.realizations} seed={args.seed}")
    _emit(args, meta, ["mean", "stderr", "n_realizations", "seed", "interference_mode"],
          [[est.mean, est.stderr, args.realizations, args.seed, mode]])
    return 0


# ------------------------------------------------- optimal-density, compare

def _cmd_optimal_density(args) -> int:
    lam_star, tv = ian.optimal_density(args.d, args.alpha)
    meta = f"optimal-density d={args.d} alpha={args.alpha} rule=ian"
    _emit(args, meta, ["lambda_star", "throughput"], [[lam_star, tv.value]])
    return 0


def _cmd_compare(args) -> int:
    report = fixed_rate.compare_cognitive_vs_fixed(_cfg(args))
    meta = f"compare lam={args.lam} d={args.d} alpha={args.alpha}"
    keys = ["c_ian", "t_ian", "c_opt", "t_opt", "gap_ian", "gap_opt"]
    _emit(args, meta, keys, [[report[k] for k in keys]])
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
    p.add_argument("--mode", choices=sorted(_MODES), default="full",
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
    p.add_argument("--rule", choices=sorted(_RULES), required=True)
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
    p.add_argument("--rule", action="append", choices=sorted(_RULES),
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
    p.add_argument("--rule", choices=sorted(_RULES), required=True)
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
