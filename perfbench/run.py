#!/usr/bin/env python3
"""Benchmark of fuzzydom: two fixed-work workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dominate-products --seed 3 --seconds 40
    python3 perfbench/run.py --seed 3               # every workload in turn
    python3 perfbench/run.py --workload check-corpus --trace 1

Each workload runs in a fresh interpreter (perfbench/worker.py). Set-up is
also run SETUP_PROBES[workload] more times, each in its own interpreter, and
setup_s is the median of all of them. With --trace 0 the last line of output
is a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run instead. The inputs a run writes go to
.perfbench-out/ and are removed after the run; the raw record of each run
(per-op times, set-up probes, reference loop) stays there as
<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("check-corpus", "dominate-products")
# extra set-up-only interpreters per run; dominate-products writes its
# inputs in set-up, which takes seconds, so it gets fewer
SETUP_PROBES = {"check-corpus": 6, "dominate-products": 2}
CHILD_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    pass


def _child(workload: str, seed: int, seconds: int, trace: int,
           workdir: str, setup_only: bool) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--root", ROOT, "--workdir", workdir, "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} worker exited with {proc.returncode}:\n"
                             f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(values: list[float], k: int) -> float:
    """k-th decile (k = 5: median, k = 9: 90th percentile)."""
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Set-up probes plus one full run; returns the contract's result object."""
    workdir = os.path.join(OUT, f"{workload}-seed{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    probes = 0 if trace else SETUP_PROBES[workload]
    setups = [_child(workload, seed, seconds, 0, workdir, True)["setup_s"]
              for _ in range(probes)]
    raw = _child(workload, seed, seconds, trace, workdir, False)
    shutil.rmtree(workdir)
    setups.append(raw["setup_s"])
    raw["setup_probes_s"] = setups
    with open(f"{workdir}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)

    ops = raw["op_seconds"]
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in sorted(raw["layers"].items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(ops) / raw["wall_s"], "unit": "1/s"},
            "op_p50_ms": {"value": _quantile(ops, 5) * 1000, "unit": "ms"},
            "op_p90_ms": {"value": _quantile(ops, 9) * 1000, "unit": "ms"},
            "cpu_ms_per_op": {"value": raw["cpu_s"] / len(ops) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    for line in raw["errors"] + raw["problems"][:20]:
        print(f"{workload}: {line}", file=sys.stderr)
    print(f"== {workload}  seed {seed}  ops {raw['attempted']}  "
          f"failed {raw['failed']}  check problems {len(raw['problems'])}  "
          f"reference loop {raw['reference_loop_ms']:.1f} ms")
    for name, m in metrics.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:40s} {value:>14s} {m['unit']}")
    return {"correct": not raw["problems"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; all of them in turn when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "fuzzydom", "__init__.py")):
        print(f"no fuzzydom sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names}
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
