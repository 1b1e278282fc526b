"""End-to-end acceptance criteria.

Each test evaluates one criterion, prints a single PASS/FAIL line even when
pytest captures output, and then asserts. The corpus configurations below
are fixed; every value they produce is deterministic.
"""

import json
import time
from fractions import Fraction

import pytest

from fuzzydom.alpha import (
    brute_force_lp_min,
    build_lp,
    gamma_alpha,
    gamma_t_alpha,
    verify_alpha_function,
)
from fuzzydom.core import FuzzyGraph, effective_edges, fuzzy_order, is_complete
from fuzzydom.domination import brute_force_min, min_dominating, min_total_dominating
from fuzzydom.fileformat import dumps
from fuzzydom.harness import (
    FORCED_IDS,
    HYPOTHESIS_IDS,
    GenParams,
    gen_random,
    replay_report,
    reports_to_json,
    run_corpus,
)
from fuzzydom.product import direct_product, is_complete_product

F = Fraction

PROBS = (F(1, 4), F(1, 2), F(3, 4), F(1))
GRIDS = (4, 5, 10, 20)


def _report(capsys, number: int, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def _example_one() -> tuple[FuzzyGraph, FuzzyGraph]:
    g = FuzzyGraph.build("G", [("g1", "0.15"), ("g2", "0.2")],
                         [("g1", "g2", "0.15")])
    h = FuzzyGraph.build("H", [("h1", "0.2"), ("h2", "0.2")],
                         [("h1", "h2", "0.2")])
    return g, h


def _example_three_left() -> FuzzyGraph:
    return FuzzyGraph.build(
        "G", [("g1", "0.2"), ("g2", "0.15"), ("g3", "0.2")],
        [("g1", "g2", "0.1"), ("g2", "g3", "0.15")])


def test_criterion_1_worked_product_example(capsys):
    start = time.perf_counter()
    g, h = _example_one()
    p = direct_product(g, h)
    tot = min_total_dominating(p)
    dom = min_dominating(p)
    elapsed = time.perf_counter() - start
    ok = (fuzzy_order(p) == F(7, 10)
          and is_complete(g) and is_complete(h)
          and is_complete_product(p)
          and tot.optimum == F(7, 10)
          and tot.witness == ("g1|h1", "g1|h2", "g2|h1", "g2|h2")
          and dom.optimum == F(3, 10)
          and dom.witness == ("g1|h1", "g1|h2")
          and elapsed < 1.0)
    _report(capsys, 1, ok,
            f"complete product, nu=0.3, nu_t=0.7 in {elapsed:.3f}s")


def test_criterion_2_sparse_product_example(capsys):
    start = time.perf_counter()
    g = _example_three_left()
    _, h = _example_one()
    p = direct_product(g, h)
    dom = min_dominating(p)
    tot = min_total_dominating(p)
    eff = effective_edges(p)
    elapsed = time.perf_counter() - start
    ok = (dom.optimum == F(7, 10)
          and dom.witness == ("g1|h1", "g1|h2", "g2|h1", "g2|h2")
          and tot.status == "nonexistent"
          and [(u, v) for u, v, _ in eff] == [("g2|h1", "g3|h2"),
                                              ("g2|h2", "g3|h1")]
          and all(mu == F(3, 20) for _, _, mu in eff)
          and elapsed < 1.0)
    _report(capsys, 2, ok,
            f"nu=0.7, no total dominating set, 2 effective edges in {elapsed:.3f}s")


def test_criterion_3_solver_oracle_equivalence(capsys):
    start = time.perf_counter()
    mismatches = 0
    for i in range(200):
        params = GenParams(
            vertex_count=1 + (i % 12),
            edge_probability=PROBS[i % 4],
            effective_probability=PROBS[(i // 4) % 4],
            sigma_grid=GRIDS[(i // 2) % 4],
            seed=1000 + i,
        )
        g = gen_random(params)
        if min_dominating(g) != brute_force_min(g, "dominating"):
            mismatches += 1
        if min_total_dominating(g) != brute_force_min(g, "total"):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _report(capsys, 3, ok,
            f"200 graphs up to 12 vertices, both kinds, {mismatches} "
            f"mismatches in {elapsed:.1f}s")


def test_criterion_4_lp_oracle_equivalence(capsys):
    start = time.perf_counter()
    alphas = (F(1, 4), F(1, 2), F(1))
    mismatches = 0
    for i in range(100):
        params = GenParams(
            vertex_count=1 + (i % 6),
            edge_probability=PROBS[i % 4],
            effective_probability=PROBS[(i // 4) % 4],
            sigma_grid=GRIDS[(i // 2) % 4],
            seed=5000 + i,
        )
        g = gen_random(params)
        for alpha in alphas:
            open_lp = build_lp(g, alpha, "open")
            f = gamma_t_alpha(g, alpha)
            oracle = brute_force_lp_min(open_lp)
            if (f.weight if f is not None else None) != oracle:
                mismatches += 1
            if f is not None and verify_alpha_function(g, f):
                mismatches += 1
            closed_lp = build_lp(g, alpha, "closed")
            fc = gamma_alpha(g, alpha)
            if fc.weight != brute_force_lp_min(closed_lp):
                mismatches += 1
            if verify_alpha_function(g, fc):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _report(capsys, 4, ok,
            f"100 graphs x 3 alpha levels, optima match the oracle and "
            f"assignments verify, {mismatches} mismatches in {elapsed:.1f}s")


def _corpus_pairs() -> list[tuple[GenParams, GenParams]]:
    pairs = []
    for i in range(500):
        left = GenParams(
            vertex_count=1 + (i % 4),
            edge_probability=PROBS[i % 4],
            effective_probability=PROBS[(i // 2) % 4],
            sigma_grid=GRIDS[i % 4],
            seed=2 * i,
        )
        right = GenParams(
            vertex_count=1 + ((i // 4) % 4),
            edge_probability=PROBS[(i // 3) % 4],
            effective_probability=PROBS[(i // 5) % 4],
            sigma_grid=GRIDS[(i // 7) % 4],
            seed=2 * i + 1,
        )
        pairs.append((left, right))
    return pairs


def test_criterion_5_forced_claims_hold(capsys):
    start = time.perf_counter()
    reports = run_corpus(_corpus_pairs(), theorem_ids=sorted(FORCED_IDS))
    elapsed = time.perf_counter() - start
    bad = [r.theorem_id for r in reports if r.status == "counterexample-found"]
    applicable = {r.theorem_id: r.instances_checked for r in reports}
    ok = (not bad and all(n > 0 for n in applicable.values())
          and elapsed < 300.0)
    _report(capsys, 5, ok,
            f"forced claims on 500 pairs hold "
            f"({min(applicable.values())}..{max(applicable.values())} "
            f"applicable instances) in {elapsed:.1f}s")


def test_criterion_6_counterexamples_replay(capsys):
    reports = run_corpus(_corpus_pairs())
    js = reports_to_json(reports)
    reported_ids = {e["theorem_id"] for e in js}
    stored = sum(len(e["counterexamples"]) for e in js)
    problems = replay_report(js)
    found = [e["theorem_id"] for e in js if e["status"] == "counterexample-found"]
    ok = (set(HYPOTHESIS_IDS) <= reported_ids
          and stored > 0 and not problems and len(found) > 0
          and not set(FORCED_IDS) & set(found))
    _report(capsys, 6, ok,
            f"all hypothesis claims reported; {stored} stored "
            f"counterexamples ({', '.join(found)}) all replay")


def test_criterion_7_reports_are_byte_deterministic(capsys):
    pairs = _corpus_pairs()[:200]
    first = reports_to_json(run_corpus(pairs))
    second = reports_to_json(run_corpus(pairs))
    for entry in (*first, *second):
        entry.pop("wall_time_ms")
    reports_equal = (json.dumps(first, sort_keys=False)
                     == json.dumps(second, sort_keys=False))
    files_equal = all(
        dumps(gen_random(left)) == dumps(gen_random(left))
        and dumps(gen_random(right)) == dumps(gen_random(right))
        for left, right in pairs[:50])
    ok = reports_equal and files_equal
    _report(capsys, 7, ok,
            "repeated runs give byte-identical graph files and reports "
            "(wall_time_ms aside)")
