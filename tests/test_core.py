"""Graph construction, validation, and effective-edge machinery."""

import gc
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from fuzzydom.core import (
    FuzzyGraph,
    GraphStructureError,
    InvalidGraphError,
    ProductTag,
    UnknownVertexError,
    _effective_adjacency,
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
from fuzzydom.fileformat import load, save
from fuzzydom.harness import GenParams, run_corpus
from fuzzydom.product import ProductError, direct_product
from fuzzydom.weights import format_weight

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
    with pytest.raises(GraphStructureError, match=re.escape(
            "sigma(a): weight must be a Fraction (or a decimal string through "
            f"FuzzyGraph.build), got {type(weight).__name__}")):
        FuzzyGraph.build("g", [("a", weight)])


def test_validate_reports_loop_and_mu_violation():
    with pytest.raises(InvalidGraphError) as info:
        FuzzyGraph.build("g", [("a", "0.3"), ("b", "0.2")],
                         [("a", "a", "0.1"), ("a", "b", "0.3")])
    assert info.value.violations == [
        "loop on (a,a)",
        "mu exceeds min sigma on (a,b)",
    ]
    assert str(info.value) == (
        "graph 'g' is invalid: loop on (a,a); mu exceeds min sigma on (a,b)")


def test_direct_construction_is_validated_too():
    with pytest.raises(InvalidGraphError, match="sigma out of range on a"):
        FuzzyGraph(name="g", vertices=("a",), sigma=(Fraction(3, 2),), edges=())


def test_constructor_rejects_sigma_of_the_wrong_length():
    with pytest.raises(GraphStructureError,
                       match=r"graph 'g' has 2 vertices but 1 sigma values"):
        FuzzyGraph(name="g", vertices=("a", "b"), sigma=(Fraction(1, 2),),
                   edges=())


def test_constructor_rejects_unknown_endpoints():
    with pytest.raises(GraphStructureError) as info:
        FuzzyGraph(name="g", vertices=("a", "b"),
                   sigma=(Fraction(1, 2), Fraction(1, 2)),
                   edges=(("a", "z", Fraction(1, 10)),))
    assert str(info.value) == "edge endpoint 'z' is not a vertex"
    assert not isinstance(info.value, InvalidGraphError)


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)
_EDGELESS_PRODUCT = {"name": "p", "vertices": ("a|x", "a|y", "b|x", "b|y"),
                     "sigma": (_HALF,) * 4, "edges": ()}


@pytest.mark.parametrize("fields, error, fragment", [
    pytest.param({"vertices": ("a", "a"), "sigma": (_HALF, _THIRD)},
                 GraphStructureError, "duplicate vertex id 'a'", id="duplicate-id"),
    pytest.param({"vertices": ("a",), "sigma": (0.5,)},
                 GraphStructureError, "sigma(a): weight must be a Fraction (or a "
                 "decimal string through FuzzyGraph.build), got float",
                 id="float-weight"),
    pytest.param({"vertices": ("a", "b"), "sigma": (_HALF, _HALF),
                  "edges": (("a", "b", 0.5),)},
                 GraphStructureError, "mu(a,b): weight must be a Fraction (or a "
                 "decimal string through FuzzyGraph.build), got float",
                 id="float-mu"),
    pytest.param({"vertices": ("a",), "sigma": ("0.5",)},
                 GraphStructureError, "sigma(a): weight must be a Fraction (or a "
                 "decimal string through FuzzyGraph.build), got str",
                 id="string-sigma"),
    pytest.param({"vertices": ("a b",), "sigma": (_HALF,)},
                 GraphStructureError, "bad vertex id 'a b'", id="bad-token"),
    pytest.param({"vertices": ("a", "b"), "sigma": (_HALF, _HALF),
                  "edges": (("b", "a", _HALF),)},
                 GraphStructureError, "edge (b,a) is not oriented", id="reversed-edge"),
    pytest.param({"vertices": ("a", "b"), "sigma": (_HALF, _HALF),
                  "edges": (("a", "b", _HALF), ("a", "b", Fraction(1, 4)))},
                 GraphStructureError, "duplicate edge (a,b)", id="repeated-pair"),
    pytest.param({"vertices": ("|b",), "sigma": (_HALF,),
                  "product_tag": ProductTag("g", "h", "|")},
                 ProductError, "two nonempty factor ids", id="empty-factor-id"),
    pytest.param({"vertices": ["a"], "sigma": [_HALF], "edges": []},
                 GraphStructureError, "other fields tuples", id="list-fields"),
])
def test_constructor_rejects_every_non_graph(fields, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        FuzzyGraph(**{"name": "g", "edges": (), **fields})


def test_constructor_accepts_the_tag_its_ids_spell():
    tag = ProductTag("g", "h", "|")
    g = FuzzyGraph(**_EDGELESS_PRODUCT, product_tag=tag)
    assert g == FuzzyGraph.build("p", zip(g.vertices, g.sigma), product_tag=tag)


def test_build_rejects_endpoints_that_are_not_strings():
    with pytest.raises(GraphStructureError):
        FuzzyGraph.build("g", [("a", "0.5")], [(1, "a", "0.1")])


def test_validate_passes_clean_graph(p3_mixed):
    assert validate(p3_mixed) == []
    assert "_integer_view" not in vars(p3_mixed)


def test_unknown_vertex_lookup(k2_low):
    with pytest.raises(UnknownVertexError):
        k2_low.index("nope")


def test_vertex_lookups_never_hash_the_graph(monkeypatch):
    def refuse(self):
        raise AssertionError("the graph was hashed")

    monkeypatch.setattr(FuzzyGraph, "__hash__", refuse)
    g = FuzzyGraph.build("g", [("a", "0.5"), ("b", "0.2")], [("a", "b", "0.2")])
    assert g.index("b") == 1
    with pytest.raises(UnknownVertexError):
        g.index("zz")
    with pytest.raises(InvalidGraphError) as info:
        FuzzyGraph.build("g", [("a", "0.5"), ("b", "0.2")], [("a", "b", "0.3")])
    assert info.value.violations == ["mu exceeds min sigma on (a,b)"]


def _fresh(x: Fraction) -> Fraction:
    return Fraction(x.numerator * 3, x.denominator * 3)  # a new object


def test_equal_graphs_hash_equal_and_share_one_mask_entry(p3_product, tmp_path):
    g = p3_product
    rebuilt = FuzzyGraph(
        name=g.name, vertices=g.vertices, sigma=tuple(map(_fresh, g.sigma)),
        edges=tuple((u, v, _fresh(mu)) for u, v, mu in g.edges),
        product_tag=g.product_tag)
    path = tmp_path / "g.fg"
    save(g, str(path))
    loaded = load(str(path))
    assert rebuilt.sigma[0] is not g.sigma[0]
    assert g == rebuilt == loaded
    assert hash(g) == hash(rebuilt) == hash(loaded)
    _effective_adjacency.cache_clear()
    assert _effective_adjacency(g) == _effective_adjacency(rebuilt) \
        == _effective_adjacency(loaded)
    info = _effective_adjacency.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_effectiveness_is_exact_equality(p3_mixed):
    assert not is_effective(p3_mixed, "g1", "g2")  # 0.1 < min = 0.15
    assert is_effective(p3_mixed, "g2", "g3")
    assert is_effective(p3_mixed, "g3", "g2")
    assert not is_effective(p3_mixed, "g1", "g3")  # no such edge


def test_loops_are_never_effective():
    # a loop cannot even be built
    with pytest.raises(InvalidGraphError) as info:
        FuzzyGraph.build("g", [("a", "0.3")], [("a", "a", "0.3")])
    assert info.value.violations == ["loop on (a,a)"]


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


_WEAK_EDGE = FuzzyGraph.build(
    "weak-edge", [("a", "0.3"), ("b", "0.2"), ("c", "0.2")],
    [("a", "b", "0.1"), ("a", "c", "0.2"), ("b", "c", "0.2")])


@given(graphs())
@example(_WEAK_EDGE)
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


# Raw FuzzyGraph fields with weights over mixed denominators, so the common
# scale of the integer checks runs from 1 to beyond 10**13.
_DENOMINATORS = (1, 3, 7, 999983, 10**6)


def _over(denominator: int, low: int, high: int) -> st.SearchStrategy[Fraction]:
    """k / denominator for every k from low * denominator to high * denominator."""
    return st.integers(low * denominator, high * denominator).map(
        lambda k: Fraction(k, denominator))


# negative, zero, in [0, 1] and above 1
_ANY_WEIGHT = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from(_DENOMINATORS).flatmap(lambda d: _over(d, -1, 2)))
_UNIT_WEIGHT = st.sampled_from(_DENOMINATORS).flatmap(lambda d: _over(d, 0, 1))


@st.composite
def _raw_fields(draw, sigma_weights, mu_weights, loops=True):
    """FuzzyGraph keyword fields; mu_weights(s, t) draws mu of an edge whose
    ends have sigma s and t, and edges are canonical: u <= v, sorted by pair."""
    n = draw(st.integers(0, 6))
    vertices = tuple(f"v{i}" for i in range(n))
    sigma = tuple(draw(sigma_weights) for _ in range(n))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: loops or p[0] != p[1]),
        unique_by=lambda p: frozenset(p), max_size=8)) if n else []
    edges = tuple(sorted(
        (*sorted((vertices[i], vertices[j])), draw(mu_weights(sigma[i], sigma[j])))
        for i, j in pairs))
    return {"name": "raw", "vertices": vertices, "sigma": sigma, "edges": edges}


def _reference_violations(fields) -> list[str]:
    sigma = dict(zip(fields["vertices"], fields["sigma"]))
    found = [f"sigma out of range on {v}"
             for v, s in sigma.items() if not 0 <= s <= 1]
    for u, v, mu in fields["edges"]:
        if u == v:
            found.append(f"loop on ({u},{v})")
            continue
        if not 0 <= mu <= 1:
            found.append(f"mu out of range on ({u},{v})")
        if mu > min(sigma[u], sigma[v]):
            found.append(f"mu exceeds min sigma on ({u},{v})")
    return found


def _reference_masks(fields) -> tuple[int, ...]:
    sigma = dict(zip(fields["vertices"], fields["sigma"]))
    position = {v: i for i, v in enumerate(fields["vertices"])}
    masks = [0] * len(fields["vertices"])
    for u, v, mu in fields["edges"]:
        if u != v and mu == min(sigma[u], sigma[v]):
            masks[position[u]] |= 1 << position[v]
            masks[position[v]] |= 1 << position[u]
    return tuple(masks)


def _below(s: Fraction, t: Fraction) -> st.SearchStrategy[Fraction]:
    """min(s, t) itself, or a fraction of it over a mixed denominator."""
    low = min(s, t)
    return st.one_of(st.just(low), _UNIT_WEIGHT.map(lambda k: low * k))


_TINY = Fraction(1, 10**6 * 999983)
_LARGE_LCM = {
    "name": "raw",
    "vertices": ("a", "b", "c", "d"),
    "sigma": (Fraction(1, 3), Fraction(2, 7), Fraction(500000, 999983),
              Fraction(999999, 10**6)),
    "edges": (("a", "b", Fraction(2, 7)),            # effective
              ("a", "c", Fraction(1, 3) - _TINY),    # just below min sigma
              ("b", "d", Fraction(2, 7) + _TINY),    # just above min sigma
              ("c", "d", Fraction(500000, 999983))),  # effective
}


@given(_raw_fields(_ANY_WEIGHT, lambda s, t: _ANY_WEIGHT))
@example(_LARGE_LCM)
@example({**_LARGE_LCM, "sigma": (Fraction(-1, 7), Fraction(0), Fraction(4, 3),
                                  Fraction(1))})
@example({**_LARGE_LCM, "edges": (("a", "d", Fraction(-1, 999983)),
                                  ("b", "c", Fraction(10**6 + 1, 10**6)),
                                  ("c", "c", Fraction(0)))})
def test_integer_checks_match_the_fraction_rule(fields):
    expected = _reference_violations(fields)
    if not expected:
        g = FuzzyGraph(**fields)
        assert "_integer_view" not in vars(g)
        assert _effective_adjacency(g) == _reference_masks(fields)
        return
    with pytest.raises(InvalidGraphError) as info:
        FuzzyGraph(**fields)
    assert info.value.violations == expected


@given(_raw_fields(_UNIT_WEIGHT, _below, loops=False))
@example({**_LARGE_LCM, "edges": tuple(e for e in _LARGE_LCM["edges"]
                                       if e[0] != "b" or e[1] != "d")})
def test_effective_masks_match_the_fraction_rule(fields):
    assert _effective_adjacency(FuzzyGraph(**fields)) == _reference_masks(fields)


def _fields(g: FuzzyGraph) -> dict:
    return {"name": g.name, "vertices": g.vertices, "sigma": g.sigma,
            "edges": g.edges, "product_tag": g.product_tag}


@given(g=graphs(), h=graphs(max_vertices=3))
def test_every_maker_keeps_masks_and_hash_but_not_the_view(tmp_path_factory, g, h):
    path = str(tmp_path_factory.getbasetemp() / "owned.fg")
    save(g, path)
    equal = [
        FuzzyGraph(name=g.name, vertices=g.vertices,
                   sigma=tuple(map(_fresh, g.sigma)),
                   edges=tuple((u, v, _fresh(mu)) for u, v, mu in g.edges)),
        FuzzyGraph.build(g.name, [(v, format_weight(s))
                                  for v, s in zip(g.vertices, g.sigma)],
                         [(v, u, _fresh(mu)) for u, v, mu in reversed(g.edges)]),
        load(path),
    ]
    for made in [*equal, direct_product(g, h)]:
        assert "_integer_view" not in vars(made)
        _effective_adjacency.cache_clear()  # read this instance's masks
        assert _effective_adjacency(made) == _reference_masks(_fields(made))
    for made in equal:
        assert made == g and hash(made) == hash(g)


def _live_graphs() -> int:
    gc.collect()
    return sum(isinstance(o, FuzzyGraph) for o in gc.get_objects())


def test_corpus_runs_keep_no_more_graphs_alive_than_the_cache_holds():
    # 200 pairs make over 600 graphs; only the cache's entries may outlive them
    cap = _effective_adjacency.cache_info().maxsize
    before = _live_graphs()
    run_corpus([(GenParams(4, Fraction(1, 2), Fraction(1, 2), 10, 2 * i),
                 GenParams(4, Fraction(1, 2), Fraction(1, 2), 10, 2 * i + 1))
                for i in range(200)])
    assert cap is not None and _live_graphs() - before <= cap
