"""The benchmark's two workloads.

Each workload turns a seed into a fixed list of ops, builds their inputs in
set-up, runs one op at a time when asked, and checks the outputs after the
timed phase. Only the names fuzzydom exports are used, plus
fuzzydom.cli.main. Functions are looked up on the package at call time, so
a traced run sees every call.

Two rules keep the work of a run fixed, so that runs differ only by the
program:

* the op list depends on the seed and the run length alone, never on time
  spent, and always holds whole rounds;
* no graph value is timed twice in one process (core caches derived data by
  graph value, which users running the CLI never benefit from).
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import fuzzydom
import fuzzydom.cli

import checks

# seeds of one run lie in [seed * SEED_STRIDE, (seed + 1) * SEED_STRIDE)
SEED_STRIDE = 10 ** 7
WARMUP_OFFSET = SEED_STRIDE // 2


def _rounds(seconds: int, ops_per_second: float, round_ops: int) -> int:
    return max(1, math.ceil(seconds * ops_per_second / round_ops))


class Workload:
    """What worker.py needs of a workload; subclasses set n_ops and the ops."""

    name: str
    n_ops: int
    reaches: tuple[str, ...] = ()   # traced keys the workload must call

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def failed(self, output) -> bool:
        """An op that returned normally may still have failed (an exit code)."""
        return False

    def check(self, outputs: list) -> list[str]:
        raise NotImplementedError

    def layer_metrics(self, outputs: list) -> dict:
        """Per-layer rows that come from the outputs rather than the tracer."""
        return {"harness.claim_wall_ms": (0, "ms")}


class CheckCorpus(Workload):
    """One op: `fuzzydom check` over all claims for PAIRS_PER_OP pairs of
    4-vertex factors at the CLI's default generation parameters."""

    name = "check-corpus"
    PAIRS_PER_OP = 10
    FACTOR = "vertices=4"
    OPS_PER_SECOND = 20.0   # nominal, sets the op count for a run length
    reaches = ("cli.main", "harness.run_corpus", "harness.gen_random",
               "product.direct_product", "domination.min_dominating",
               "domination.min_total_dominating", "alpha.build_lp",
               "simplex.minimize", "harness.save_report", "core.build")

    def __init__(self, seed: int, seconds: int, workdir: str):
        self.base = seed * SEED_STRIDE
        self.workdir = workdir
        self.n_ops = _rounds(seconds, self.OPS_PER_SECOND, 1)

    def _argv(self, base_seed: int, pairs: int, report: str) -> list[str]:
        return ["check", "--left-params", self.FACTOR,
                "--right-params", self.FACTOR, "--seeds", str(pairs),
                "--base-seed", str(base_seed), "-o", report]

    def _report(self, i: int) -> str:
        return os.path.join(self.workdir, f"report-{i}.json")

    def setup(self) -> None:
        self.argvs = [self._argv(self.base + 2 * self.PAIRS_PER_OP * i,
                                 self.PAIRS_PER_OP, self._report(i))
                      for i in range(self.n_ops)]
        fuzzydom.cli.main(self._argv(self.base + WARMUP_OFFSET, 1,
                                     os.path.join(self.workdir, "warmup.json")))

    def op(self, i: int) -> int:
        return fuzzydom.cli.main(self.argvs[i])

    def failed(self, output: int) -> bool:
        return output != 0

    def check(self, outputs: list) -> list[str]:
        problems = []
        memo: dict = {}
        for i, code in enumerate(outputs):
            if self.failed(code):
                continue
            problems.extend(f"op {i}: {p}" for p in checks.report_problems(
                self._read(i), self.PAIRS_PER_OP, fuzzydom, memo))
        return problems

    def _read(self, i: int) -> list[dict]:
        with open(self._report(i), encoding="utf-8") as fh:
            return json.load(fh)

    def layer_metrics(self, outputs: list) -> dict:
        wall = sum(entry["wall_time_ms"]
                   for i, code in enumerate(outputs) if not self.failed(code)
                   for entry in self._read(i))
        return {"harness.claim_wall_ms": (wall, "ms")}


class DominateProducts(Workload):
    """One op: load one product file of 36, 49 or 64 vertices, then compute
    nu and nu_t on the loaded graph.

    Factors are complete graphs with sigma on a grid of 10, so the seed sets
    the memberships. Over 100 consecutive seeds a 64-vertex solve took at
    most 0.82 s; with edge probability 7/8 one took over 6 s, and sparser or
    partly effective factors run for tens of seconds on some seeds.
    """

    name = "dominate-products"
    SIDES = (6, 6, 6, 7, 8)   # one round
    EDGE_PROB = Fraction(1)
    EFFECTIVE_PROB = Fraction(1)
    GRID = 10
    OPS_PER_SECOND = 9.0
    reaches = ("fileformat.load", "domination.min_dominating",
               "domination.min_total_dominating", "core.build",
               "product.direct_product", "fileformat.save")

    def __init__(self, seed: int, seconds: int, workdir: str):
        self.base = seed * SEED_STRIDE
        self.workdir = workdir
        rounds = _rounds(seconds, self.OPS_PER_SECOND, len(self.SIDES))
        self.n_ops = rounds * len(self.SIDES)

    def _factor(self, side: int, seed: int):
        return fuzzydom.gen_random(fuzzydom.GenParams(
            vertex_count=side, edge_probability=self.EDGE_PROB,
            effective_probability=self.EFFECTIVE_PROB, sigma_grid=self.GRID,
            seed=seed))

    def _write_product(self, side: int, seed: int, path: str) -> None:
        # the built product is dropped unused: the op must load a graph
        # value that no cache has seen
        product = fuzzydom.direct_product(self._factor(side, seed),
                                          self._factor(side, seed + 1))
        fuzzydom.save(product, path)

    def _path(self, i: int) -> str:
        return os.path.join(self.workdir, f"product-{i}.fg")

    def setup(self) -> None:
        for i in range(self.n_ops):
            self._write_product(self.SIDES[i % len(self.SIDES)],
                                self.base + 2 * i, self._path(i))
        warmup = os.path.join(self.workdir, "warmup.fg")
        self._write_product(3, self.base + WARMUP_OFFSET, warmup)
        self._solve(warmup)

    @staticmethod
    def _solve(path: str):
        graph = fuzzydom.load(path)
        return fuzzydom.min_dominating(graph), fuzzydom.min_total_dominating(graph)

    def op(self, i: int):
        return self._solve(self._path(i))

    def check(self, outputs: list) -> list[str]:
        problems = []
        for i, output in enumerate(outputs):
            if output is not None:
                problems.extend(checks.domination_problems(self._path(i), *output))
        return problems


WORKLOADS = {w.name: w for w in (CheckCorpus, DominateProducts)}
