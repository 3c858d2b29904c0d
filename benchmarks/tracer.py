"""Outside-in tracer for the pppt library.

``Tracer.install`` wraps every function listed in ``__all__`` of the six
library modules (numerics, ian, opt, fixed_rate, simulation, model) and
rebinds the wrapper wherever a pppt module holds the same function by name
(``opt.integrate``, ``fixed_rate.find_root``, ...), so calls between
modules and inside a module are traced too.  Nothing in the package is
edited; the wrappers exist only in the interpreter that installs them.

Each call records a span: name, parent span, start and end.  Spans on one
thread nest on that thread's own stack, so a span's self time is its
duration minus the durations of its direct children.  Root spans also
record the thread's CPU time, which separates worker-thread work from
waiting for the interpreter lock.  An exception raised through a wrapper
counts as a failure of that function.  Spans stay in memory until
``write``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import threading
import time

LAYERS = ("numerics", "ian", "opt", "fixed_rate", "simulation", "model")
SAMPLERS = ("simulation.estimate_cognitive", "simulation.estimate_fixed_rate",
            "simulation.tightness_report")
# decades of mu = lam*pi*d^2 for the opt.cognitive_throughput timings
MU_BINS = (("mu_lt1", 1.0), ("mu_1_10", 10.0), ("mu_10_100", 100.0),
           ("mu_100_1000", 1000.0), ("mu_ge1000", math.inf))

# span fields; a list is cheaper to build per call than an object
NAME, PARENT, START, END, CHILD_S, FAILED, THREAD, CPU_S, EXTRA = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._originals: dict[str, object] = {}

    # ------------------------------------------------------------ install

    def install(self) -> None:
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"pppt.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    name = f"{layer}.{attr}"
                    self._originals[name] = fn
                    wrappers[id(fn)] = self._wrap(name, fn, self._annotator(name, fn))
        for modname, module in list(sys.modules.items()):
            if modname == "pppt" or modname.startswith("pppt."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, attr, wrappers[id(value)])

    def _wrap(self, name, fn, annotate):
        local, spans = self._local, self.spans
        clock, thread_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = [name, parent, 0.0, 0.0, 0.0, False, None, 0.0, None]
            if parent is None:
                span[THREAD] = threading.get_ident()
                cpu0 = thread_clock()
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                end = span[END] = clock()
                stack.pop()
                if parent is None:
                    span[CPU_S] = thread_clock() - cpu0
                else:
                    parent[CHILD_S] += end - span[START]
                spans.append(span)
            if annotate is not None:
                span[EXTRA] = annotate(args, kwargs, result)
            return result

        return wrapper

    def _annotator(self, name, fn):
        """What a span records beyond its timing, for the few that need it."""
        if name == "opt.cognitive_throughput":
            return lambda args, kwargs, result: (args[0] if args else kwargs["cfg"]).mu
        if name == "numerics.truncated_poisson_weights":
            return lambda args, kwargs, result: len(result)
        if name in SAMPLERS:
            signature = inspect.signature(fn)
            window = self._originals["simulation.default_window_radius"]

            def sampled(args, kwargs, result):
                # (realizations, points): points are computed as lam*pi*W^2*n,
                # the expected window population, not counted
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                n = a["n_realizations"]
                cfgs = a["cfgs"] if "cfgs" in a else [a["cfg"]]
                points = 0.0
                for cfg in cfgs:
                    w = a["window_radius"] or window(cfg)
                    points += cfg.lam * math.pi * w * w * n
                return n * len(cfgs), points

            return sampled
        return None

    # ------------------------------------------------------------ results

    def summary(self, main_thread: int) -> dict:
        """Per-function counts and times, plus the layer aggregates."""
        functions = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0}
                     for name in self._originals}
        mu_ms = {label: [] for label, _ in MU_BINS}
        terms = realizations = 0
        points = sampler_self = worker_cpu = 0.0
        for span in self.spans:
            name = span[NAME]
            duration = span[END] - span[START]
            self_s = duration - span[CHILD_S]
            fn = functions[name]
            fn["calls"] += 1
            fn["total_s"] += duration
            fn["self_s"] += self_s
            fn["failed"] += span[FAILED]
            if span[PARENT] is None and span[THREAD] != main_thread:
                worker_cpu += span[CPU_S]
            extra = span[EXTRA]
            if extra is None:
                continue
            if name == "opt.cognitive_throughput":
                label = next(label for label, top in MU_BINS if extra < top)
                mu_ms[label].append(1e3 * duration)
            elif name == "numerics.truncated_poisson_weights":
                terms += extra
            elif name in SAMPLERS:
                realizations += extra[0]
                points += extra[1]
                sampler_self += self_s
        return {
            "functions": functions,
            "cognitive_opt_ms_by_mu": mu_ms,
            "poisson_terms": terms,
            "realizations": realizations,
            "points": points,
            "sampler_self_s": sampler_self,
            "worker_cpu_s": worker_cpu,
            "spans": len(self.spans),
        }

    def write(self, path: str) -> None:
        """Spans as JSON lines: id, parent id, name, thread, start, end, failed."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                fh.write(json.dumps([i, None if parent is None else ids[id(parent)], span[NAME],
                                     span[THREAD], span[START], span[END], span[FAILED]]))
                fh.write("\n")
