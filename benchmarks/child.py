"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 benchmarks/child.py SPEC.json

The spec lists pppt argument vectors, whether to trace, and where to write
the result JSON.  The child times ``import pppt.cli`` (the set-up time),
then runs every argument vector through ``pppt.cli.main`` in this process
and records the wall time, the CPU time of all threads, the exit codes and
the peak resident memory.  With tracing on, ``tracer.Tracer`` wraps the
library before the first call and its summary joins the result; the spans
are written out after the clock stops.  A spec with no argument vectors
measures set-up time only.
"""
import json
import resource
import sys
import threading
import time
import traceback


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import pppt.cli as cli
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    result = {"setup_s": setup_s, "pppt": cli.__file__,
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if spec["invocations"]:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        codes = []
        cpu0, w0 = _cpu_s(), time.perf_counter()
        for argv in spec["invocations"]:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse usage errors
                codes.append(exc.code)
            except Exception:  # a traceback escaping main is a failed run, not a crash here
                traceback.print_exc()
                codes.append(None)
        wall, cpu = time.perf_counter() - w0, _cpu_s() - cpu0
        result.update(exit_codes=codes, wall_s=wall, cpu_s=cpu)
        if tracer is not None:
            result["trace"] = tracer.summary(threading.main_thread().ident)
            tracer.write(spec["spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
