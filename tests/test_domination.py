"""Exact domination solvers against the brute-force oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from fuzzydom.core import FuzzyGraph
from fuzzydom.harness import GenParams, gen_random
from fuzzydom.product import direct_product
from fuzzydom.domination import (
    TooLargeError,
    brute_force_min,
    has_total_dominating,
    is_dominating,
    is_total_dominating,
    min_dominating,
    min_total_dominating,
)

from .conftest import graphs


def test_example_product_values(example_product):
    dom = min_dominating(example_product)
    assert dom.found
    assert dom.optimum == Fraction(3, 10)
    assert dom.witness == ("g1|h1", "g1|h2")

    tot = min_total_dominating(example_product)
    assert tot.optimum == Fraction(7, 10)
    assert tot.witness == ("g1|h1", "g1|h2", "g2|h1", "g2|h2")


def test_sparse_product_loses_total_domination(p3_product):
    dom = min_dominating(p3_product)
    assert dom.optimum == Fraction(7, 10)
    assert dom.witness == ("g1|h1", "g1|h2", "g2|h1", "g2|h2")

    tot = min_total_dominating(p3_product)
    assert tot.status == "nonexistent"
    assert tot.optimum is None and tot.witness is None
    assert not has_total_dominating(p3_product)


def test_membership_predicates(example_product):
    assert is_dominating(example_product, ["g1|h1", "g1|h2"])
    assert not is_dominating(example_product, ["g1|h1"])
    assert is_total_dominating(example_product, example_product.vertices)
    assert not is_total_dominating(example_product, ["g1|h1", "g1|h2"])


def test_dominating_always_exists_even_without_edges():
    g = FuzzyGraph.build("iso", [("a", "0.4"), ("b", "0.6")])
    dom = min_dominating(g)
    assert dom.witness == ("a", "b")
    assert dom.optimum == Fraction(1)
    assert min_total_dominating(g).status == "nonexistent"


def test_empty_graph():
    g = FuzzyGraph.build("empty", [])
    assert min_dominating(g).optimum == 0
    assert min_dominating(g).witness == ()
    assert min_total_dominating(g).optimum == 0


def test_witness_prefers_lexicographically_first_tuple():
    # two singleton optima of equal weight: v1 must win over v2
    g = FuzzyGraph.build(
        "tie",
        [("v1", "0.5"), ("v2", "0.5"), ("v3", "0.5")],
        [("v1", "v2", "0.5"), ("v2", "v3", "0.5"), ("v1", "v3", "0.5")])
    assert min_dominating(g).witness == ("v1",)
    tot = min_total_dominating(g)
    assert tot.witness == ("v1", "v2")


def test_zero_sigma_vertices_pad_the_witness():
    # {a} alone covers everything, but adding the free vertex z in front
    # makes the index tuple smaller, so the optimal witness is ("z", "a")
    g = FuzzyGraph.build(
        "zpad",
        [("z", "0"), ("a", "0.5"), ("b", "0.5")],
        [("z", "a", "0"), ("a", "b", "0.5")])
    dom = min_dominating(g)
    oracle = brute_force_min(g, "dominating")
    assert dom.optimum == oracle.optimum == Fraction(1, 2)
    assert dom.witness == oracle.witness == ("z", "a")


# 49-vertex products on which the search once took 20-40 s; the values were
# computed with the earlier search, which branched on the lowest uncovered
# vertex and enumerated each cover once per order of its picks
HEAVY_TAIL = [
    (10000,
     (Fraction(53, 20),
      ("v1|v2", "v1|v7", "v2|v1", "v2|v2", "v2|v3", "v2|v7", "v3|v1", "v3|v2",
       "v3|v3", "v3|v6", "v3|v7", "v4|v2", "v4|v7", "v5|v1", "v5|v2", "v5|v5",
       "v5|v7", "v6|v2", "v7|v2", "v7|v7")),
     (None, None)),
    (10002,
     (Fraction(31, 20),
      ("v1|v2", "v2|v2", "v2|v3", "v2|v6", "v3|v1", "v3|v6", "v5|v2", "v5|v4",
       "v6|v2", "v7|v1")),
     (Fraction(19, 10),
      ("v2|v3", "v2|v4", "v2|v6", "v3|v1", "v3|v4", "v3|v6", "v5|v4",
       "v5|v5"))),
    (10004,
     (Fraction(67, 20),
      ("v1|v1", "v1|v3", "v1|v7", "v2|v1", "v2|v3", "v2|v7", "v3|v7", "v4|v7",
       "v5|v1", "v5|v3", "v5|v7", "v6|v7", "v7|v7")),
     (Fraction(99, 20),
      ("v1|v1", "v1|v2", "v1|v3", "v1|v7", "v2|v1", "v2|v2", "v2|v3", "v2|v7",
       "v5|v1", "v5|v2", "v5|v3", "v5|v7"))),
]


@pytest.mark.parametrize("seed,dom,tot", HEAVY_TAIL)
def test_heavy_tail_products_keep_their_optima(seed, dom, tot):
    def factor(s):
        return gen_random(GenParams(vertex_count=7,
                                    edge_probability=Fraction(1, 2),
                                    effective_probability=Fraction(3, 4),
                                    sigma_grid=20, seed=s))

    p = direct_product(factor(seed), factor(seed + 1))
    result = min_dominating(p)
    assert (result.optimum, result.witness) == dom
    result = min_total_dominating(p)
    assert (result.optimum, result.witness) == tot
    assert result.found == (tot[0] is not None)


def test_oracle_rejects_large_graphs():
    g = FuzzyGraph.build("big", [(f"v{i}", "0.5") for i in range(21)])
    with pytest.raises(TooLargeError):
        brute_force_min(g, "dominating")


@given(graphs(max_vertices=7))
@settings(max_examples=150)
def test_solver_matches_oracle_dominating(g):
    fast = min_dominating(g)
    slow = brute_force_min(g, "dominating")
    assert fast == slow


@given(graphs(max_vertices=7))
@settings(max_examples=150)
def test_solver_matches_oracle_total(g):
    fast = min_total_dominating(g)
    slow = brute_force_min(g, "total")
    assert fast == slow


@given(graphs(max_vertices=7))
def test_witnesses_actually_dominate(g):
    dom = min_dominating(g)
    assert is_dominating(g, dom.witness)
    tot = min_total_dominating(g)
    if tot.found:
        assert is_total_dominating(g, tot.witness)
    else:
        assert not is_total_dominating(g, g.vertices)
