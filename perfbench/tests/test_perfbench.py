"""Tests of the benchmark itself: its checks, its families and its tracer.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import fuzzydom

import checks
import tracing
import worker
import workloads
from conftest import BENCH, ROOT

def _dominate(tmp_path, sides=(3, 4), n_ops=4) -> workloads.DominateProducts:
    tmp_path.mkdir(exist_ok=True)
    w = workloads.DominateProducts(seed=7, seconds=1, workdir=str(tmp_path))
    w.SIDES = sides
    w.n_ops = n_ops
    w.setup()
    return w


# -- the solvers agree with the oracles on small members of each family ------

def test_dominate_family_matches_brute_force(tmp_path):
    w = _dominate(tmp_path)
    for i in range(w.n_ops):
        graph = fuzzydom.load(w._path(i))
        dominating, total = w.op(i)
        for result, kind in ((dominating, "dominating"), (total, "total")):
            oracle = fuzzydom.brute_force_min(graph, kind)
            assert (result.status, result.optimum, result.witness) == (
                oracle.status, oracle.optimum, oracle.witness)
        assert checks.domination_problems(w._path(i), dominating, total) == []


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """30 check-corpus ops of seed 7; their reports hold T9 and T10
    counterexamples, which state LP optima."""
    w = workloads.CheckCorpus(seed=7, seconds=1, workdir=str(tmp_path_factory.mktemp("cc")))
    w.n_ops = 30
    w.setup()
    outputs = [w.op(i) for i in range(w.n_ops)]
    return w, outputs


def test_check_corpus_reports_pass_their_checks(corpus):
    w, outputs = corpus
    assert outputs == [0] * w.n_ops
    assert w.check(outputs) == []
    assert w.layer_metrics(outputs)["harness.claim_wall_ms"][1] == "ms"


def test_same_seed_same_inputs(tmp_path):
    first = _dominate(tmp_path / "a")
    second = _dominate(tmp_path / "b")
    for i in range(first.n_ops):
        with open(first._path(i), "rb") as a, open(second._path(i), "rb") as b:
            assert a.read() == b.read()


# -- corrupted answers are caught ---------------------------------------------

def _corrupt_witness(result, drop: int):
    witness = result.witness[:drop] + result.witness[drop + 1:]
    return dataclasses.replace(result, witness=witness)


def test_dropped_witness_vertex_is_caught(tmp_path):
    w = _dominate(tmp_path)
    dominating, total = w.op(0)
    assert checks.domination_problems(w._path(0), _corrupt_witness(dominating, 0),
                                      total) != []
    if total.found:
        assert checks.domination_problems(
            w._path(0), dominating, _corrupt_witness(total, 0)) != []


def test_wrong_optimum_is_caught(tmp_path):
    w = _dominate(tmp_path)
    dominating, total = w.op(0)
    lowered = dataclasses.replace(dominating, optimum=dominating.optimum - Fraction(1, 10))
    assert checks.domination_problems(w._path(0), lowered, total) != []


@pytest.mark.parametrize("prefix", ["nu", "gamma"])
def test_wrong_stated_optimum_in_report_is_caught(corpus, prefix):
    """A lowered nu (domination) or gamma (alpha LP) value in a report fails."""
    w, _ = corpus
    reports = [w._read(i) for i in range(w.n_ops)]
    record, key = next((rec, key) for report in reports for entry in report
                       for rec in entry["counterexamples"]
                       for key, value in rec["witness"].items()
                       if key.startswith(prefix) and value != "nonexistent")
    record["witness"][key] = str(Fraction(record["witness"][key]) - Fraction(1, 1000))
    memo: dict = {}
    problems = [p for report in reports
                for p in checks.report_problems(report, w.PAIRS_PER_OP, fuzzydom, memo)]
    assert any(f"states {key}" in p for p in problems)


# -- the traced run -----------------------------------------------------------

def _traced_run(tmp_path, workload: str) -> dict:
    args = argparse.Namespace(root=ROOT, workdir=str(tmp_path), workload=workload,
                              seed=3, seconds=1, trace=1, setup_only=False)
    return worker.run(args)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads.DominateProducts, "SIDES", (3, 4))
    monkeypatch.setattr(workloads.DominateProducts, "OPS_PER_SECOND", 4)
    monkeypatch.setattr(workloads.CheckCorpus, "OPS_PER_SECOND", 3)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_accounts_for_op_time(tmp_path, tiny, workload):
    result = _traced_run(tmp_path, workload)
    assert result["problems"] == [] and result["failed"] == 0
    layers = {name: value for name, (value, _) in result["layers"].items()}
    assert set(layers) >= {m["name"] for m in _per_layer_metrics()}
    assert all(value is not None for value in layers.values())
    self_ms = sum(layers[f"{layer}.self_ms"] for layer in tracing.LAYERS
                  if layer != "cli") + layers["cli.main_self_ms"]
    assert self_ms + layers["trace.bench_self_ms"] == pytest.approx(
        layers["trace.op_ms"], rel=1e-6)
    # the originals are back after the run
    assert fuzzydom.harness.min_total_dominating is fuzzydom.domination.min_total_dominating
    assert not hasattr(fuzzydom.domination.min_dominating, "__wrapped__")


def test_traced_run_marks_missing_private_targets_absent(tmp_path, tiny, monkeypatch):
    monkeypatch.setitem(sys.modules, "fuzzydom._cover", None)
    monkeypatch.setattr(tracing, "CACHE_MODULE", "fuzzydom.weights")
    result = _traced_run(tmp_path, "dominate-products")
    assert result["problems"] == [] and result["failed"] == 0
    layers = {name: value for name, (value, _) in result["layers"].items()}
    for name in ("domination.kernel_ms", "domination.kernel_calls",
                 "core.graphs_retained"):
        assert layers[name] is None
    assert layers["domination.min_dominating_ms"] > 0


def test_tracer_sees_calls_through_imported_names():
    tracer = tracing.Tracer().install()
    try:
        fuzzydom.run_corpus([(fuzzydom.GenParams(3, Fraction(1, 2), Fraction(1, 2), 10, s),
                              fuzzydom.GenParams(3, Fraction(1, 2), Fraction(1, 2), 10, s + 1))
                             for s in (11, 13)])
    finally:
        tracer.uninstall()
    assert tracer.calls("domination.min_total_dominating") > 0
    assert tracer.calls("product.direct_product") == 2
    assert tracer.reach_problems(("product.direct_product",)) == []
    assert tracer.reach_problems(("alpha.build_lp", "fileformat.load")) != []


# -- the command line and its contract ----------------------------------------

def _per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def test_benchmark_json_names_the_workloads():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = tuple(w["name"] for w in spec["workloads"])
    assert names == run.WORKLOADS == tuple(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "check-corpus", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
