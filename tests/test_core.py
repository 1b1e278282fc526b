"""Graph construction, validation, and effective-edge machinery."""

from fractions import Fraction

import pytest
from hypothesis import example, given

from fuzzydom.core import (
    FuzzyGraph,
    GraphStructureError,
    UnknownVertexError,
    closed_neighborhood,
    effective_degree_counts,
    effective_edges,
    fuzzy_cardinality,
    fuzzy_order,
    is_complete,
    is_crisp_connected,
    is_effective,
    open_neighborhood,
    validate,
)

from .conftest import graphs


def test_build_normalizes_edge_order():
    g = FuzzyGraph.build("g", [("b", "0.5"), ("a", "0.5")], [("b", "a", "0.5")])
    assert g.vertices == ("b", "a")  # input order preserved
    assert g.edges == (("a", "b", Fraction(1, 2)),)


@pytest.mark.parametrize("vid", ["", "a b", "a,b", "a(b", "a)b", "a\tb"])
def test_build_rejects_bad_ids(vid):
    with pytest.raises(GraphStructureError):
        FuzzyGraph.build("g", [(vid, "0.5")])


def test_build_rejects_duplicate_vertices():
    with pytest.raises(GraphStructureError, match="duplicate vertex"):
        FuzzyGraph.build("g", [("a", "0.5"), ("a", "0.6")])


def test_build_rejects_unknown_endpoints():
    with pytest.raises(GraphStructureError, match="not a vertex"):
        FuzzyGraph.build("g", [("a", "0.5")], [("a", "zz", "0.1")])


def test_build_rejects_duplicate_edges_in_either_orientation():
    with pytest.raises(GraphStructureError, match="duplicate edge"):
        FuzzyGraph.build("g", [("a", "0.5"), ("b", "0.5")],
                         [("a", "b", "0.1"), ("b", "a", "0.2")])


def test_build_rejects_out_of_range_weights():
    with pytest.raises(GraphStructureError):
        FuzzyGraph.build("g", [("a", Fraction(3, 2))])


@pytest.mark.parametrize("weight", [1, True])
def test_build_rejects_weights_that_are_not_fractions_or_strings(weight):
    with pytest.raises(GraphStructureError, match="rational or string"):
        FuzzyGraph.build("g", [("a", weight)])


def test_validate_reports_loop_and_mu_violation():
    g = FuzzyGraph.build("g", [("a", "0.3"), ("b", "0.2")],
                         [("a", "a", "0.1"), ("a", "b", "0.3")])
    assert validate(g) == [
        "loop on (a,a)",
        "mu exceeds min sigma on (a,b)",
    ]


def test_validate_passes_clean_graph(p3_mixed):
    assert validate(p3_mixed) == []


def test_unknown_vertex_lookup(k2_low):
    with pytest.raises(UnknownVertexError):
        k2_low.index("nope")


def test_vertex_lookups_never_hash_the_graph(monkeypatch):
    def refuse(self):
        raise AssertionError("the graph was hashed")

    monkeypatch.setattr(FuzzyGraph, "__hash__", refuse)
    g = FuzzyGraph.build("g", [("a", "0.5"), ("b", "0.2")], [("a", "b", "0.3")])
    assert g.index("b") == 1
    with pytest.raises(UnknownVertexError):
        g.index("zz")
    assert validate(g) == ["mu exceeds min sigma on (a,b)"]


def test_effectiveness_is_exact_equality(p3_mixed):
    assert not is_effective(p3_mixed, "g1", "g2")  # 0.1 < min = 0.15
    assert is_effective(p3_mixed, "g2", "g3")
    assert is_effective(p3_mixed, "g3", "g2")
    assert not is_effective(p3_mixed, "g1", "g3")  # no such edge


def test_loops_are_never_effective():
    g = FuzzyGraph.build("g", [("a", "0.3")], [("a", "a", "0.3")])
    assert not is_effective(g, "a", "a")
    assert open_neighborhood(g, "a") == ()


def test_neighborhoods_follow_input_order():
    g = FuzzyGraph.build(
        "g", [("c", "0.5"), ("a", "0.5"), ("b", "0.5")],
        [("a", "c", "0.5"), ("b", "c", "0.5")])
    assert open_neighborhood(g, "c") == ("a", "b")
    assert closed_neighborhood(g, "c") == ("c", "a", "b")
    assert closed_neighborhood(g, "a") == ("c", "a")


def test_effective_degree_counts(p3_mixed):
    assert effective_degree_counts(p3_mixed) == (0, 1, 1)


def test_effective_edges_filters_non_effective(p3_mixed):
    assert effective_edges(p3_mixed) == (("g2", "g3", Fraction(3, 20)),)


def test_is_complete_on_effective_triangle():
    t = FuzzyGraph.build("t", [("a", "1"), ("b", "1"), ("c", "1")],
                         [("a", "b", "1"), ("a", "c", "1"), ("b", "c", "1")])
    assert is_complete(t)


def test_is_complete_fails_on_non_effective_edge(p3_mixed):
    assert not is_complete(p3_mixed)


def test_orders_and_cardinalities(p3_mixed):
    assert fuzzy_order(p3_mixed) == Fraction(11, 20)
    assert fuzzy_cardinality(p3_mixed, ["g1", "g3"]) == Fraction(2, 5)
    # duplicates in the iterable count once
    assert fuzzy_cardinality(p3_mixed, ["g1", "g1"]) == Fraction(1, 5)


def test_crisp_connectivity_ignores_effectiveness(p3_mixed):
    assert is_crisp_connected(p3_mixed)  # g1-g2 counts though not effective


def test_crisp_connectivity_drops_zero_mu_edges():
    g = FuzzyGraph.build("g", [("a", "0.5"), ("b", "0.5")], [("a", "b", "0")])
    assert not is_crisp_connected(g)


def test_single_vertex_and_empty_are_connected():
    assert is_crisp_connected(FuzzyGraph.build("g", [("a", "0.5")]))
    assert is_crisp_connected(FuzzyGraph.build("g", []))


@given(graphs())
def test_generated_graphs_validate_clean(g):
    assert validate(g) == []


@given(graphs())
def test_neighborhood_symmetry(g):
    for v in g.vertices:
        for u in open_neighborhood(g, v):
            assert v in open_neighborhood(g, u)
            assert u != v


_LOOP_AND_WEAK_EDGE = FuzzyGraph.build(
    "loop-and-weak-edge", [("a", "0.3"), ("b", "0.2"), ("c", "0.2")],
    [("a", "a", "0.3"), ("a", "b", "0.1"), ("a", "c", "0.2"), ("b", "c", "0.2")])


@given(graphs())
@example(_LOOP_AND_WEAK_EDGE)
def test_every_reader_agrees_with_the_effectiveness_rule(g):
    sigma = dict(zip(g.vertices, g.sigma))
    effective = {frozenset((u, v)) for u, v, mu in g.edges
                 if u != v and mu == min(sigma[u], sigma[v])}
    neighbors = {u: tuple(v for v in g.vertices if frozenset((u, v)) in effective)
                 for u in g.vertices}
    for u in g.vertices:
        assert open_neighborhood(g, u) == neighbors[u]
        assert closed_neighborhood(g, u) == tuple(
            v for v in g.vertices if v == u or v in neighbors[u])
        for v in g.vertices:
            assert is_effective(g, u, v) == (frozenset((u, v)) in effective)
    assert effective_edges(g) == tuple(
        e for e in g.edges if frozenset(e[:2]) in effective)
    assert effective_degree_counts(g) == tuple(
        len(neighbors[u]) for u in g.vertices)
