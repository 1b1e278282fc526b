"""One run of one workload, in a fresh interpreter; started by run.py.

Prints one JSON line with the run's raw figures: set-up time, per-op wall
times, CPU time and peak RSS of the timed phase, the outcome of the output
checks, and with --trace 1 the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: a yardstick for machine speed."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for k in range(200_000):
            acc = (acc * 31 + k) % 1_000_003
        times.append((time.perf_counter() - start) * 1000)
    return sorted(times)[len(times) // 2]


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(args: argparse.Namespace) -> dict:
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import fuzzydom  # timed: the import is part of set-up
    if not os.path.abspath(fuzzydom.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"fuzzydom was imported from {fuzzydom.__file__}, "
                         f"not from {src}")
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer().install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                  args.workdir)
    workload.setup()
    setup_s = time.perf_counter() - start
    if args.setup_only:
        return {"setup_s": setup_s}

    op = workload.op if tracer is None else tracer.op(workload.op)
    if tracer is not None:
        tracer.start_timed_phase()
    outputs, op_seconds, errors = [], [], []
    clock = time.perf_counter
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        cpu0 = _cpu_seconds()
        wall0 = clock()
        for i in range(workload.n_ops):
            t0 = clock()
            try:
                output = op(i)
            except Exception:  # a failed op is counted, the run goes on
                output = None
                errors.append(f"op {i}: {traceback.format_exc(limit=3)}")
            op_seconds.append(clock() - t0)
            outputs.append(output)
        wall = clock() - wall0
        cpu = _cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        # read before the checks, which build graphs of their own
        layers = tracer.metrics()
        tracer.uninstall()

    failed = sum(1 for out in outputs if out is None or workload.failed(out))
    problems = workload.check(outputs)
    result = {
        "setup_s": setup_s,
        "attempted": workload.n_ops,
        "failed": failed,
        "problems": problems,
        "errors": errors,
        "wall_s": wall,
        "cpu_s": cpu,
        "op_seconds": op_seconds,
        "peak_rss_mb": peak_rss_mb,
        "reference_loop_ms": reference_loop_ms(),
    }
    if tracer is not None:
        layers.update(workload.layer_metrics(outputs))
        layers["trace.ops_per_s"] = (workload.n_ops / wall, "1/s")
        result["layers"] = layers
        result["problems"] += tracer.reach_problems(workload.reaches)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    result = run(parser.parse_args(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
