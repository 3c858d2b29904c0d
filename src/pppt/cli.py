"""Command-line experiment harness.

Subcommands: pdf, sweep, figures, simulate, optimal-density, compare.
Output is CSV with one leading ``#`` metadata line (tool version plus an
echo of the request), or a JSON mirror via ``--format json``.  All
randomness flows from ``--seed`` (default 0); nothing reads the clock.
Sweep and figure cells are evaluated one after another and written once,
in grid order.
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
_RATE_MODES = {"exact": "exact_powers", "lower": "lower_bound_powers"}
_METHODS = ("cognitive", "fixed", "bounds", "simulate")
# figure 6 columns, all filled from one simulation.tightness_report row
_TIGHTNESS_COLUMNS = ("c_ian_analytic", "c_opt_analytic", "c_ian_simulated", "c_ian_stderr",
                      "c_opt_simulated", "c_opt_stderr", "ratio_analytic", "ratio_simulated")


def _fmt(v) -> str:
    if isinstance(v, float):
        return "nan" if math.isnan(v) else format(v, ".12g")
    return str(v)


def _emit(args, meta: str, header: list[str], rows: list[list]) -> None:
    out = getattr(args, "out", None) or "-"
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


def _check_points(points: int) -> None:
    if points < 2:
        raise ValueError("--points must be >= 2")


def _lambda_grid(args) -> np.ndarray:
    if args.log:
        return np.geomspace(args.lambda_min, args.lambda_max, args.points)
    return np.linspace(args.lambda_min, args.lambda_max, args.points)


def _cfg(args, lam=None) -> NetworkConfig:
    return NetworkConfig(lam=args.lam if lam is None else lam, d=args.d, alpha=args.alpha)


# ------------------------------------------------------------------ pdf

def _cmd_pdf(args) -> int:
    cfg = _cfg(args)
    rule = _RULES[args.rule]
    if args.grid_log:
        xs = np.geomspace(args.x_min, args.x_max, args.points)
    else:
        xs = np.linspace(args.x_min, args.x_max, args.points)
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

def _sweep_columns(rules, methods):
    """Column groups (names, method, rule, detail); one evaluation fills a group."""
    groups = []
    for method in methods:
        for rule in rules:
            if method in ("cognitive", "fixed"):
                groups.append(((f"{method}_{rule}",), method, rule, None))
            elif method == "bounds":
                groups.append(((f"lower_{rule}",), method, rule, "lower"))
                groups.append(((f"upper_{rule}",), method, rule, "upper"))
                if rule == "ian":
                    groups.append(((f"asymptote_{rule}",), method, rule, "asymptote"))
            else:  # simulate: one sampling pass gives the mean and its stderr
                groups.append(((f"sim_{rule}", f"sim_{rule}_stderr"), method, rule, None))
    return groups


def _sweep_cell(args, cfg, method, rule_name, detail):
    """The values of one column group at one density."""
    if method == "tightness":
        row, = simulation.tightness_report([cfg], n_realizations=args.realizations,
                                           seed=args.seed)
        return tuple(row[name] for name in _TIGHTNESS_COLUMNS)
    rule = _RULES[rule_name]
    mod = ian if rule is DecodingRule.IAN else opt
    if method == "cognitive":
        return (mod.cognitive_throughput(cfg).value,)
    if method == "fixed":
        return (fixed_rate.highest_throughput(cfg, rule).throughput.value,)
    if method == "bounds":
        if detail == "lower":
            y = args.y_ian if rule is DecodingRule.IAN else args.y_opt
            return (mod.lower_bound(cfg, y).value,)
        if detail == "upper":
            return (mod.upper_bound(cfg).value,)
        return (ian.asymptote(cfg).value,)
    est = simulation.estimate_cognitive(
        cfg, rule, mode=_MODES[args.mode], n_realizations=args.realizations,
        seed=args.seed, rate_mode=_RATE_MODES[args.rate_mode],
    )
    return est.mean, est.stderr


def _sweep(args, groups, meta: str) -> int:
    """Evaluate every (lambda, column group) cell and emit the table in grid
    order; a failed cell leaves NaN and one warning per column."""
    grid = _lambda_grid(args)
    cfgs = [_cfg(args, lam) for lam in grid]  # an invalid network is a usage error
    names = [name for g in groups for name in g[0]]
    starts = np.cumsum([0] + [len(g[0]) for g in groups])
    values = np.full((len(grid), len(names)), np.nan)
    failures = 0
    for i, cfg in enumerate(cfgs):
        for k, group in enumerate(groups):
            try:
                values[i, starts[k]:starts[k + 1]] = _sweep_cell(args, cfg, *group[1:])
            except (ArithmeticError, ValueError) as exc:
                for name in group[0]:
                    print(f"warning: cell lam={grid[i]:g} {name}: {exc}", file=sys.stderr)
                failures += 1
    rows = [[float(lam)] + [float(v) for v in values[i]] for i, lam in enumerate(grid)]
    _emit(args, meta, ["lambda"] + names, rows)
    return 1 if failures else 0


def _cmd_sweep(args) -> int:
    if not args.lambda_min < args.lambda_max:
        raise ValueError("--lambda-min must be below --lambda-max")
    _check_points(args.points)
    rules = args.rule or ["ian", "opt"]
    methods = args.method or ["cognitive"]
    if "simulate" in methods:
        simulation._check_realizations(args.realizations)
    if "bounds" in methods:
        edge = opt.conditional_support_edge(0)  # the widest joint-rule edge
        if not args.y_ian > 0:
            raise ValueError(f"--y-ian must be > 0, got {args.y_ian}")
        if not args.y_opt > edge:
            raise ValueError(f"--y-opt must be > {edge:g}, got {args.y_opt}")
    meta = (f"sweep lambda=[{args.lambda_min},{args.lambda_max}]x{args.points} "
            f"scale={'log' if args.log else 'linear'} d={args.d} alpha={args.alpha} "
            f"rules={'+'.join(rules)} methods={'+'.join(methods)} "
            f"realizations={args.realizations} seed={args.seed}")
    return _sweep(args, _sweep_columns(rules, methods), meta)


# -------------------------------------------------------------- figures

_FIGURE_PLANS = {
    2: (["ian"], ["cognitive", "bounds"]),
    3: (["opt"], ["cognitive", "bounds"]),
    4: (["opt"], ["cognitive", "bounds"]),
    5: (["ian", "opt"], ["cognitive", "fixed"]),
}


def _cmd_figures(args) -> int:
    fig = args.fig
    ns = argparse.Namespace(**vars(args))
    ns.d, ns.alpha = 1.0, 4.0
    ns.lambda_min, ns.lambda_max, ns.log = 0.01, 10.0, True
    ns.y_ian, ns.y_opt = 1.0, 2.0
    ns.points = (10 if fig == 6 else 30) if args.points is None else args.points
    _check_points(ns.points)
    if fig == 6:  # analytic vs full-interference simulation, one sampling pass per density
        simulation._check_realizations(ns.realizations)
        groups = [(_TIGHTNESS_COLUMNS, "tightness", None, None)]
    else:
        groups = _sweep_columns(*_FIGURE_PLANS[fig])
        if fig == 3:  # throughput next to the bound it approaches
            groups = [g for g in groups if g[3] != "lower"]
    os.makedirs(args.out_dir, exist_ok=True)
    ns.out = os.path.join(args.out_dir, f"fig{fig}.{args.format}")
    meta = (f"figure {fig} d=1 alpha=4 grid=[0.01,10]x{ns.points} log "
            + ("lower bound at y=1 " if fig == 2 else "")
            + ("lower bound at y=2 " if fig == 4 else "")
            + (f"realizations={ns.realizations} " if fig == 6 else "")
            + f"seed={ns.seed}"
            + (" rate_mode=lower" if fig == 6 else ""))
    return _sweep(ns, groups, meta)


# ------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    cfg = _cfg(args)
    rule = _RULES[args.rule]
    mode = _MODES[args.mode]
    rmode = _RATE_MODES[args.rate_mode]
    if args.method == "cognitive":
        est = simulation.estimate_cognitive(
            cfg, rule, mode=mode, n_realizations=args.realizations,
            seed=args.seed, rate_mode=rmode)
    else:
        sol = fixed_rate.highest_throughput(cfg, rule)
        est = simulation.estimate_fixed_rate(
            cfg, sol, n_realizations=args.realizations,
            seed=args.seed, mode=mode, rate_mode=rmode)
    meta = (f"simulate method={args.method} rule={args.rule} lam={cfg.lam} d={cfg.d} "
            f"alpha={cfg.alpha} mode={args.mode} rate_mode={args.rate_mode} "
            f"realizations={args.realizations} seed={args.seed}")
    _emit(args, meta,
          ["mean", "stderr", "n_realizations", "seed", "interference_mode", "rate_mode"],
          [[est.mean, est.stderr, est.n_realizations, est.seed,
            est.interference_mode, est.rate_mode or ""]])
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
    p.add_argument("--rate-mode", choices=sorted(_RATE_MODES), default="lower",
                   help="power accounting in the joint-decode constraint")


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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # QuadratureError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
