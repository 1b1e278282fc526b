"""Direct product construction, fibers, and completeness."""

from fractions import Fraction

import pytest
from hypothesis import given

from fuzzydom.core import is_effective, validate
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
    assert example_product.sigma_of("g1|h1") == Fraction(3, 20)
    assert example_product.sigma_of("g2|h2") == Fraction(1, 5)


def test_edges_pair_effective_factor_edges(example_product):
    assert example_product.edges == (
        ("g1|h1", "g2|h2", Fraction(3, 20)),
        ("g1|h2", "g2|h1", Fraction(3, 20)),
    )


def test_fibers(example_product):
    assert fiber_left(example_product, "g1") == ("g1|h1", "g1|h2")
    assert fiber_right(example_product, "h2") == ("g1|h2", "g2|h2")
    with pytest.raises(ProductError):
        fiber_left(example_product, "h1")  # right-factor id


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
    # g1-g2 is not effective in the left factor, so no product edge uses it
    assert not is_effective(p3_product, "g1|h1", "g2|h2")
    assert is_effective(p3_product, "g2|h1", "g3|h2")


def test_separator_conflicts_are_rejected(k2_low, k2_even):
    with pytest.raises(ProductError):
        direct_product(k2_low, k2_even, separator="1")


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
        assert p.sigma_of(vid) == min(g.sigma_of(gu), h.sigma_of(hu))


@given(graphs(max_vertices=4), graphs(max_vertices=4))
def test_product_edges_iff_both_factor_pairs_effective(g, h):
    p = direct_product(g, h)
    tag = p.product_tag
    for a in p.vertices:
        for b in p.vertices:
            if a == b:
                continue
            ga, ha = tag.factor_of(p, a)
            gb, hb = tag.factor_of(p, b)
            expected = is_effective(g, ga, gb) and is_effective(h, ha, hb)
            assert is_effective(p, a, b) == expected
