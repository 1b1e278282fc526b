"""Direct product construction, fibers, and completeness."""

from fractions import Fraction

import pytest
from hypothesis import example, given

from fuzzydom.core import FuzzyGraph, is_effective, validate
from fuzzydom.product import (
    MissingTagError,
    ProductError,
    direct_product,
    fiber_left,
    fiber_right,
    is_complete_product,
    missing_product_edge,
)

from .conftest import graphs


def test_vertices_are_left_major_pairs(example_product):
    assert example_product.vertices == ("g1|h1", "g1|h2", "g2|h1", "g2|h2")
    assert example_product.name == "k2-lowxk2-even"


def test_sigma_is_pairwise_min(example_product):
    p = example_product
    assert p.sigma[p.index("g1|h1")] == Fraction(3, 20)
    assert p.sigma[p.index("g2|h2")] == Fraction(1, 5)


def test_edges_pair_effective_factor_edges(example_product):
    assert example_product.edges == (
        ("g1|h1", "g2|h2", Fraction(3, 20)),
        ("g1|h2", "g2|h1", Fraction(3, 20)),
    )


def test_fibers(example_product):
    assert fiber_left(example_product, "g1") == ("g1|h1", "g1|h2")
    assert fiber_right(example_product, "h2") == ("g1|h2", "g2|h2")
    with pytest.raises(ProductError, match="left factor"):
        fiber_left(example_product, "h1")  # right-factor id
    with pytest.raises(ProductError, match="right factor"):
        fiber_right(example_product, "g1")  # left-factor id


def test_product_order_requires_tag(k2_low):
    with pytest.raises(MissingTagError):
        is_complete_product(k2_low)


def test_completeness(example_product, p3_product):
    assert is_complete_product(example_product)
    assert not is_complete_product(p3_product)


def test_missing_product_edge_is_first_in_scan_order(example_product, p3_product):
    assert missing_product_edge(p3_product) == ("g1|h1", "g2|h2")
    assert missing_product_edge(example_product) is None


def test_non_effective_factor_edges_do_not_lift(p3_product):
    # g1-g2 is not effective in the left factor, and its mu = 0.1 is below
    # every sigma, so no product edge built on it is effective either
    assert not is_effective(p3_product, "g1|h1", "g2|h2")
    assert is_effective(p3_product, "g2|h1", "g3|h2")


def test_separator_conflicts_are_rejected(k2_low, k2_even):
    with pytest.raises(ProductError):
        direct_product(k2_low, k2_even, separator="1")


def test_invalid_factor_is_rejected_by_name(k2_even):
    bad = FuzzyGraph.build("bad", [("g1", "0.2"), ("g2", "0.3")],
                           [("g1", "g2", "0.25")])
    with pytest.raises(ProductError, match="factor 'bad' is not a valid"):
        direct_product(bad, k2_even)


def test_empty_separator_is_rejected(k2_low, k2_even):
    with pytest.raises(ProductError, match="separator must be nonempty"):
        direct_product(k2_low, k2_even, separator="")


def test_custom_separator(k2_low, k2_even):
    p = direct_product(k2_low, k2_even, separator="@")
    assert p.vertices[0] == "g1@h1"
    assert p.product_tag.separator == "@"


@given(graphs(max_vertices=4), graphs(max_vertices=4))
def test_product_membership_structure(g, h):
    p = direct_product(g, h)
    assert len(p.vertices) == len(g.vertices) * len(h.vertices)
    assert validate(p) == []
    tag = p.product_tag
    for vid, (gu, hu) in zip(p.vertices, tag.factors):
        assert vid == f"{gu}|{hu}"
        assert p.sigma[p.index(vid)] == min(g.sigma[g.index(gu)],
                                            h.sigma[h.index(hu)])


# g1-g2 is not effective (mu 0.4 < 0.5), yet g1|h1-g2|h2 is: min(0.4, 0.2)
# is 0.2, the least of its four sigmas
_NON_EFFECTIVE_LEFT = FuzzyGraph.build(
    "g", [("g1", "0.5"), ("g2", "0.5")], [("g1", "g2", "0.4")])
_LOW_RIGHT = FuzzyGraph.build(
    "h", [("h1", "0.2"), ("h2", "0.2")], [("h1", "h2", "0.2")])


@given(graphs(max_vertices=4), graphs(max_vertices=4))
@example(_NON_EFFECTIVE_LEFT, _LOW_RIGHT)
def test_product_edge_is_effective_iff_min_mu_is_the_least_sigma(g, h):
    p = direct_product(g, h)
    tag = p.product_tag
    g_mu = {frozenset((u, v)): mu for u, v, mu in g.edges}
    h_mu = {frozenset((u, v)): mu for u, v, mu in h.edges}
    for a in p.vertices:
        for b in p.vertices:
            if a == b:
                continue
            ga, ha = tag.factors[p.index(a)]
            gb, hb = tag.factors[p.index(b)]
            mu1 = g_mu.get(frozenset((ga, gb)))
            mu2 = h_mu.get(frozenset((ha, hb)))
            least_sigma = min(g.sigma[g.index(ga)], g.sigma[g.index(gb)],
                              h.sigma[h.index(ha)], h.sigma[h.index(hb)])
            expected = (mu1 is not None and mu2 is not None
                        and min(mu1, mu2) == least_sigma)
            assert is_effective(p, a, b) == expected
            if is_effective(g, ga, gb) and is_effective(h, ha, hb):
                assert is_effective(p, a, b)  # T1: effective pairs always lift
