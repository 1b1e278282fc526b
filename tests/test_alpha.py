"""alpha-domination LPs, proof functions, and the corner-enumeration oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuzzydom.alpha import (
    AlphaFunction,
    brute_force_lp_min,
    build_lp,
    gamma_alpha,
    gamma_t_alpha,
    proof_function_total,
    verify_alpha_function,
)
from fuzzydom.core import FuzzyGraph, UnknownVertexError
from fuzzydom.domination import min_total_dominating

from .conftest import graphs

F = Fraction


@pytest.fixture
def effective_k2():
    return FuzzyGraph.build("k2", [("u", "0.5"), ("v", "0.5")],
                            [("u", "v", "0.5")])


@pytest.fixture
def effective_triangle():
    return FuzzyGraph.build("k3", [("a", "1"), ("b", "1"), ("c", "1")],
                            [("a", "b", "1"), ("a", "c", "1"), ("b", "c", "1")])


def test_single_edge_total(effective_k2):
    f = gamma_t_alpha(effective_k2, F(3, 10))
    assert f.weight == F(3, 5)  # each endpoint must carry alpha for the other
    assert f.values == (F(3, 10), F(3, 10))
    assert verify_alpha_function(effective_k2, f) == []


def test_triangle_total_splits_alpha(effective_triangle):
    f = gamma_t_alpha(effective_triangle, F(3, 10))
    assert f.weight == F(9, 20)  # 3 * alpha / 2 by symmetry


def test_single_edge_closed(effective_k2):
    f = gamma_alpha(effective_k2, F(3, 10))
    assert f.weight == F(3, 10)  # one shared unit covers both closed rows


def test_isolated_vertex_makes_total_infeasible():
    g = FuzzyGraph.build("iso", [("x", "0.4")])
    assert gamma_t_alpha(g, F(1, 10)) is None
    assert gamma_alpha(g, F(1, 10)).weight == F(1, 10)


def test_non_effective_edges_do_not_feed_the_lp(p3_mixed):
    # g1's only incident edge is not effective, so its open row is empty
    assert gamma_t_alpha(p3_mixed, F(1, 10)) is None


def test_alpha_must_be_positive(effective_k2):
    with pytest.raises(ValueError):
        build_lp(effective_k2, F(0), "open")


@pytest.mark.parametrize("values,message", [
    ((F(1, 10),), "length mismatch"),
    ((F(1, 10), F(-1, 10)), "nonnegative"),
], ids=["length", "negative"])
def test_alpha_function_refuses_bad_assignments(values, message):
    with pytest.raises(ValueError, match=message):
        AlphaFunction(vertex_ids=("u", "v"), values=values, alpha=F(1, 10),
                      mode="open")


def test_verify_reports_short_rows(effective_k2):
    # v's open row reads f(u) = 0.3 >= alpha, but u's row reads f(v) = 0.2
    f = AlphaFunction(vertex_ids=("u", "v"),
                      values=(F(3, 10), F(2, 10)), alpha=F(3, 10), mode="open")
    assert verify_alpha_function(effective_k2, f) == ["u"]

    both_short = AlphaFunction(vertex_ids=("u", "v"),
                               values=(F(1, 10), F(2, 10)), alpha=F(3, 10),
                               mode="open")
    assert verify_alpha_function(effective_k2, both_short) == ["u", "v"]


def test_verify_requires_full_coverage(effective_k2):
    f = AlphaFunction(vertex_ids=("u",), values=(F(1),), alpha=F(1, 10),
                      mode="open")
    with pytest.raises(UnknownVertexError):
        verify_alpha_function(effective_k2, f)


def test_proof_function_total_caps_fiber_mass(example_product):
    tot = min_total_dominating(example_product)
    f = proof_function_total(example_product, tot.witness, F(1, 10))
    assert f.vertex_ids == ("g1", "g2")
    assert f.alpha == F(1, 5)  # records the doubled level it targets
    assert f.mode == "open"
    # g1's fiber holds 0.3 of chosen mass, capped at 2 * alpha = 0.2
    assert f.values == (F(1, 5), F(1, 5))


def test_lp_oracle_matches_simplex_on_fixture(p3_mixed):
    lp = build_lp(p3_mixed, F(3, 20), "closed")
    assert brute_force_lp_min(lp) == gamma_alpha(p3_mixed, F(3, 20)).weight


def test_lp_oracle_on_the_empty_program():
    empty = FuzzyGraph.build("empty", [], [])
    assert brute_force_lp_min(build_lp(empty, F(1, 2), "open")) == 0
    assert gamma_t_alpha(empty, F(1, 2)).weight == 0


@given(graphs(max_vertices=5),
       st.sampled_from([F(1, 10), F(1, 4), F(1, 2), F(1)]),
       st.sampled_from(["open", "closed"]))
@settings(max_examples=80)
def test_lp_oracle_equivalence(g, alpha, mode):
    lp = build_lp(g, alpha, mode)
    oracle = brute_force_lp_min(lp)
    if mode == "closed":
        f = gamma_alpha(g, alpha)
        assert oracle == f.weight
        assert verify_alpha_function(g, f) == []
    else:
        f = gamma_t_alpha(g, alpha)
        if f is None:
            assert oracle is None
        else:
            assert oracle == f.weight
            assert verify_alpha_function(g, f) == []
