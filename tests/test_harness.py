"""Generator determinism, claim checkers, shrinking, and report replay."""

import json
from fractions import Fraction

import pytest
from hypothesis import given

from fuzzydom import harness
from fuzzydom.cli import main
from fuzzydom.core import FuzzyGraph, validate
from fuzzydom.harness import (
    FORCED_IDS,
    HYPOTHESIS_IDS,
    MAX_STORED_COUNTEREXAMPLES,
    PRODUCT_VERTEX_CAP,
    REGISTRY,
    THEOREM_IDS,
    VALID_GRIDS,
    GenParams,
    TheoremReport,
    check_theorem,
    gen_random,
    replay_counterexample,
    replay_report,
    reports_to_json,
    run_corpus,
    save_report,
    shrink,
)

from .conftest import gen_params_strategy

F = Fraction


def params(seed, n=3, edge=F(1, 2), eff=F(1, 2), grid=10):
    return GenParams(vertex_count=n, edge_probability=edge,
                     effective_probability=eff, sigma_grid=grid, seed=seed)


def test_registry_partition():
    assert THEOREM_IDS == ("T1", "T2a", "T2b", "T3", "T4a", "T4b", "T5",
                           "T6", "T7", "T8", "T9", "T10", "T11", "T12")
    assert set(FORCED_IDS) == {"T1", "T2a", "T3", "T6", "T7", "T12"}
    assert set(HYPOTHESIS_IDS) == set(THEOREM_IDS) - set(FORCED_IDS)


def test_gen_is_deterministic():
    a = gen_random(params(seed=42))
    b = gen_random(params(seed=42))
    assert a == b
    assert a.name == "rand-42"
    assert a.vertices == ("v1", "v2", "v3")


def test_gen_respects_probability_extremes():
    dense = gen_random(params(seed=1, n=5, edge=F(1), eff=F(1)))
    assert len(dense.edges) == 10
    assert all(mu == min(dense.sigma[dense.index(u)],
                         dense.sigma[dense.index(v)])
               for u, v, mu in dense.edges)
    empty = gen_random(params(seed=1, n=5, edge=F(0)))
    assert empty.edges == ()


def test_gen_grid_one_suppresses_the_effectiveness_draw():
    g = gen_random(params(seed=9, n=6, edge=F(1, 2), eff=F(0), grid=1))
    assert all(s == 1 for s in g.sigma)
    assert all(mu == 1 for _, _, mu in g.edges)


def test_gen_rejects_bad_params():
    with pytest.raises(ValueError):
        params(seed=0, n=0)
    with pytest.raises(ValueError):
        params(seed=0, grid=3)
    with pytest.raises(ValueError):
        params(seed=0, edge=F(3, 2))
    with pytest.raises(ValueError):
        GenParams(vertex_count=1, edge_probability=F(1, 2),
                  effective_probability=F(1, 2), sigma_grid=10, seed=2**64)
    for fields, message in (
            ((4, 0.5, F(1, 2), 10, 0), "edge_probability must be an int or a "
                                       "Fraction, got float"),
            ((4, F(1, 2), "1/2", 10, 0), "effective_probability .* got str"),
            ((4, F(1, 2), True, 10, 0), "effective_probability .* got bool"),
            ((4.0, F(1, 2), F(1, 2), 10, 0), "vertex_count must be an int, "
                                             "got float"),
            ((4, F(1, 2), F(1, 2), True, 0), "sigma_grid .* got bool"),
            ((4, F(1, 2), F(1, 2), 10, 1.5), "seed .* got float")):
        with pytest.raises(TypeError, match=message):
            GenParams(*fields)
    # an int probability is stored as a Fraction and draws what it equals
    whole = params(seed=5, n=5, edge=1, eff=0)
    assert type(whole.edge_probability) is type(whole.effective_probability) is F
    assert gen_random(whole) == gen_random(params(seed=5, n=5, edge=F(1), eff=F(0)))


@given(gen_params_strategy())
def test_generated_graphs_are_always_valid(p):
    g = gen_random(p)
    assert validate(g) == []
    assert len(g.vertices) == p.vertex_count
    assert gen_random(p) == g


def test_check_theorem_unknown_id(k2_low, k2_even):
    with pytest.raises(ValueError, match="unknown theorem id"):
        check_theorem("T99", k2_low, k2_even)


def test_t1_holds_on_example(k2_low, k2_even):
    assert check_theorem("T1", k2_low, k2_even).status == "holds"


def test_t4a_holds_and_t5_applies_on_example(k2_low, k2_even):
    # nu_t equals the order and every product vertex has a unique neighbor
    assert check_theorem("T4a", k2_low, k2_even).status == "holds"
    assert check_theorem("T5", k2_low, k2_even).status == "holds"


def test_t2b_violated_by_non_total_factor(p3_mixed, k2_even):
    # the product of p3-mixed with an effective K2 has a total dominating
    # set on its g2/g3 block? it does not: g1's fiber is isolated
    result = check_theorem("T2b", p3_mixed, k2_even)
    assert result.status == "not-applicable"


def test_t2b_counterexample_instance():
    # the left edge is not effective (0.1 < 0.2), so the left factor has no
    # total dominating set; pairing with low right sigmas drops the product
    # minimum to 0.1 and the lifted edge becomes effective after all
    left = FuzzyGraph.build("L", [("a", "0.2"), ("b", "0.2")],
                            [("a", "b", "0.1")])
    right = FuzzyGraph.build("R", [("x", "0.1"), ("y", "0.1")],
                             [("x", "y", "0.1")])
    result = check_theorem("T2b", left, right)
    assert result.status == "violated"
    assert result.witness == {
        "product_has_total": True,
        "left_has_total": False,
        "right_has_total": True,
    }


def test_t8_holds_both_ways(p3_mixed, k2_even, k2_low):
    # with effective edges: nu < order; without: nu == order
    assert check_theorem("T8", p3_mixed, k2_even).status == "holds"
    edgeless = FuzzyGraph.build("e", [("a", "0.5")])
    assert check_theorem("T8", edgeless, k2_low).status == "holds"


def test_t7_needs_nontrivial_factors(k2_low):
    solo = FuzzyGraph.build("solo", [("x", "1")])
    assert check_theorem("T7", solo, k2_low).status == "not-applicable"


def test_t7_holds_on_complete_product(k2_low, k2_even):
    assert check_theorem("T7", k2_low, k2_even).status == "holds"


def test_alpha_default_is_min_sigma(k2_low, k2_even):
    # T12 applies with the default alpha; witnesses would record 0.15
    result = check_theorem("T12", k2_low, k2_even)
    assert result.status == "holds"


def test_alpha_override_threads_through(k2_low, k2_even):
    result = check_theorem("T9", k2_low, k2_even, alpha=F(1, 10))
    assert result.status == "holds"
    assert check_theorem("T9", k2_low, k2_even, alpha=1).status == "not-applicable"


@pytest.mark.parametrize("alpha,error,message", [
    (0.5, TypeError, "got float$"), (True, TypeError, "got bool$"),
    (F(0), ValueError, "alpha must be positive"),
    (-1, ValueError, "alpha must be positive")],
    ids=["float", "bool", "zero", "negative"])
def test_alpha_override_must_be_a_positive_int_or_fraction(k2_low, k2_even,
                                                           alpha, error, message):
    with pytest.raises(error, match=message):
        check_theorem("T1", k2_low, k2_even, alpha=alpha)
    with pytest.raises(error, match=message):
        run_corpus([(params(seed=0), params(seed=1))], alpha=alpha)
    with pytest.raises(error, match=message):
        run_corpus([], alpha=alpha)


def test_checkers_solve_factors_only_for_t3_values(monkeypatch, p3_mixed,
                                                    k2_even):
    # p3_mixed is connected, but g1 has no effective neighbor, so neither
    # factor program of T3 or T9 needs solving to know they do not apply
    solved, connectivity = [], []
    solve = harness.min_total_dominating
    connected = harness.is_crisp_connected
    monkeypatch.setattr(harness, "min_total_dominating",
                        lambda g: solved.append(g) or solve(g))
    monkeypatch.setattr(harness, "is_crisp_connected",
                        lambda g: connectivity.append(g) or connected(g))
    for tid in ("T3", "T9"):
        assert check_theorem(tid, p3_mixed, k2_even).status == "not-applicable"
    assert not [g for g in solved if g in (p3_mixed, k2_even)]

    # complete factors with every edge effective: T9-T11 apply, nothing is
    # violated, so no shrink builds further pairs
    pairs = [(params(2 * i, edge=F(1), eff=F(1)),
              params(2 * i + 1, edge=F(1), eff=F(1))) for i in range(3)]
    connectivity.clear()
    reports = run_corpus(pairs)
    assert not any(r.counterexamples for r in reports)
    assert {r.theorem_id: r.instances_checked for r in reports
            if r.theorem_id in ("T9", "T10", "T11")} == dict.fromkeys(
                ("T9", "T10", "T11"), 3)
    assert len(connectivity) <= 2 * len(pairs)


def test_shrink_requires_violation(k2_low, k2_even):
    with pytest.raises(ValueError, match="violating instance"):
        shrink(k2_low, k2_even, "T1")


def test_shrink_reaches_a_small_t4b_counterexample():
    # left: effective K2 (every vertex has a unique neighbor); right: a
    # 3-vertex path that breaks nu_t(product) = order while keeping the
    # left degrees at one
    left = FuzzyGraph.build("L", [("a", "0.5"), ("b", "0.5")],
                            [("a", "b", "0.5")])
    right = FuzzyGraph.build(
        "R", [("x", "0.5"), ("y", "0.5"), ("z", "0.5")],
        [("x", "y", "0.5"), ("y", "z", "0.5")])
    assert check_theorem("T4b", left, right).status == "violated"
    sl, sr = shrink(left, right, "T4b")
    assert check_theorem("T4b", sl, sr).status == "violated"
    assert len(sl.vertices) + len(sr.vertices) <= len(left.vertices) + len(right.vertices)
    # shrinking never invents structure
    assert validate(sl) == [] and validate(sr) == []


def test_run_corpus_rejects_oversized_pairs():
    with pytest.raises(ValueError, match="cap"):
        run_corpus([(params(0, n=5), params(1, n=4))])
    assert 5 * 4 > PRODUCT_VERTEX_CAP


def test_run_corpus_rejects_unknown_theorems():
    with pytest.raises(ValueError, match="unknown theorem ids"):
        run_corpus([(params(0, n=2), params(1, n=2))], theorem_ids=["T0"])


def test_run_corpus_reports_are_deterministic():
    pairs = [(params(2 * i, n=1 + i % 3), params(2 * i + 1, n=1 + (i // 3) % 3))
             for i in range(25)]
    first = reports_to_json(run_corpus(pairs))
    second = reports_to_json(run_corpus(pairs))
    for a, b in zip(first, second):
        a.pop("wall_time_ms")
        b.pop("wall_time_ms")
    assert json.dumps(first) == json.dumps(second)


def test_run_corpus_counterexamples_replay():
    pairs = [(params(2 * i, n=1 + i % 4), params(2 * i + 1, n=1 + (i // 4) % 4))
             for i in range(120)]
    reports = run_corpus(pairs)
    js = reports_to_json(reports)
    found = {r["theorem_id"]: r for r in js if r["status"] == "counterexample-found"}
    assert found, "expected at least one hypothesis claim to fail on this corpus"
    assert replay_report(js) == []
    for tid, entry in found.items():
        assert tid in HYPOTHESIS_IDS
        assert len(entry["counterexamples"]) <= MAX_STORED_COUNTEREXAMPLES
        record = entry["counterexamples"][0]
        assert replay_counterexample(tid, record).status == "violated"


def test_counterexamples_at_a_non_decimal_alpha_replay():
    # 1/30 has no decimal form, so the witnesses record alpha as "1/30"
    pairs = [(params(2 * i), params(2 * i + 1)) for i in range(60)]
    reports = run_corpus(pairs, theorem_ids=["T9", "T10", "T11", "T12"],
                         alpha=F(1, 30))
    js = reports_to_json(reports)
    stored = [r for e in js for r in e["counterexamples"]]
    assert stored and all(r["witness"]["alpha"] == "1/30" for r in stored)
    assert replay_report(js) == []


def test_forced_violation_is_recorded_and_fails_check(monkeypatch, tmp_path,
                                                     capsys):
    import fuzzydom.harness as harness

    broken = harness.TheoremSpec(
        theorem_id="T1", quote_anchor=REGISTRY["T1"].quote_anchor, forced=True,
        check=lambda ctx: harness.CheckResult("violated", {"fake": True}))
    monkeypatch.setitem(harness.REGISTRY, "T1", broken)
    calls = []

    def counting_shrink(*args):
        calls.append(args)
        return shrink(*args)

    monkeypatch.setattr(harness, "shrink", counting_shrink)
    # the same 12 pairs as check's --seeds 12 on vertices=2 factors
    pairs = [(params(2 * i, n=2), params(2 * i + 1, n=2)) for i in range(12)]
    [report] = reports_to_json(run_corpus(pairs, theorem_ids=["T1"]))
    assert report["status"] == "counterexample-found"
    assert report["instances_checked"] == 12
    assert len(report["counterexamples"]) == MAX_STORED_COUNTEREXAMPLES
    assert replay_report([report]) == []
    # only the violations that are stored get shrunk
    assert len(calls) == MAX_STORED_COUNTEREXAMPLES

    out = tmp_path / "check.json"
    code = main(["check", "--left-params", "vertices=2", "--right-params",
                 "vertices=2", "--seeds", "12", "--theorems", "T1",
                 "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "forced claim(s) violated: T1\n"
    assert "T1: counterexample-found (12 instances, 10 counterexamples stored)" \
        in captured.out
    assert json.loads(out.read_text())[0]["counterexamples"] \
        == report["counterexamples"]


def test_save_report_writes_json_array(tmp_path):
    pairs = [(params(0, n=2), params(1, n=2))]
    path = tmp_path / "report.json"
    save_report(run_corpus(pairs, theorem_ids=["T1", "T8"]), str(path))
    data = json.loads(path.read_text())
    assert [e["theorem_id"] for e in data] == ["T1", "T8"]
    assert all(set(e) == {"theorem_id", "quote_anchor", "instances_checked",
                          "status", "counterexamples", "wall_time_ms"}
               for e in data)


def test_failed_save_report_leaves_the_existing_file_untouched(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("[]\n")
    report = TheoremReport("T1", "anchor", 1, "counterexample-found",
                           counterexamples=[{"witness": Fraction(1, 3)}])
    with pytest.raises(TypeError, match="Fraction"):
        save_report([report], str(path))
    assert path.read_text() == "[]\n"


def test_valid_grids_square_into_the_weight_grid():
    for d in VALID_GRIDS:
        assert 10**6 % (d * d) == 0
