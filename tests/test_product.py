"""Direct product construction, fibers, and completeness."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import fuzzydom
from fuzzydom import core
from fuzzydom.core import FuzzyGraph, InvalidGraphError, is_effective, validate
from fuzzydom.fileformat import dumps, graph_of_document
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


def test_separator_must_split_every_id_back_into_its_pair():
    # "xa" + "aa" + "y" is "xaaay", which a split at the first "aa" would
    # read back as ("x", "ay"), not as the pair it was built from
    g = FuzzyGraph.build("g", [("xa", "0.5")])
    h = FuzzyGraph.build("h", [("y", "0.5")])
    with pytest.raises(ProductError, match="exactly once"):
        direct_product(g, h, separator="aa")


def test_a_separator_that_overlaps_itself_in_an_id_is_refused():
    # "x" + "aa" + "ay" is "xaaay" too; "aa" starts at two of its positions,
    # so the id splits back into no one pair, not even its own
    g = FuzzyGraph.build("g", [("x", "0.5")])
    h = FuzzyGraph.build("h", [("ay", "0.5")])
    with pytest.raises(ProductError, match="exactly once"):
        direct_product(g, h, separator="aa")


def _path(name):
    """Path graphs on 1-3 distinct ids over "abxy", every edge effective."""
    ids = st.lists(st.text("abxy", min_size=1, max_size=3),
                   min_size=1, max_size=3, unique=True)
    return ids.map(lambda vs: FuzzyGraph.build(
        name, [(v, "0.5") for v in vs], [(u, v, "0.5") for u, v in zip(vs, vs[1:])]))


@settings(max_examples=300)
@given(_path("g"), _path("h"), st.text("abxy|", min_size=1, max_size=3))
@example(FuzzyGraph.build("g", [("xa", "0.5"), ("b", "0.5")]),
         FuzzyGraph.build("h", [("y", "0.5")]), "aa")
def test_every_product_splits_back_into_its_pairs_or_is_refused(g, h, separator):
    try:
        p = direct_product(g, h, separator)
    except ProductError:
        # ids over "abxy" cannot hold a separator made only of "|"
        assert set(separator) - {"|"}
        return
    back = graph_of_document(json.loads(dumps(p)))
    assert back == p
    m = len(h.vertices)
    for i, gv in enumerate(g.vertices):
        assert fiber_left(p, gv) == p.vertices[i * m:(i + 1) * m]
        assert fiber_left(p, gv) == fiber_left(back, gv)
    for j, hv in enumerate(h.vertices):
        assert fiber_right(p, hv) == p.vertices[j::m]
        assert fiber_right(p, hv) == fiber_right(back, hv)


def test_product_error_is_one_class():
    assert fuzzydom.ProductError is ProductError is core.ProductError


def test_invalid_factor_is_rejected_by_name():
    with pytest.raises(InvalidGraphError, match="graph 'bad' is invalid"):
        FuzzyGraph.build("bad", [("g1", "0.2"), ("g2", "0.3")],
                         [("g1", "g2", "0.25")])


def test_product_is_validated_once(monkeypatch, k2_low, p3_mixed):
    calls = []
    original = core.validate

    def counting(g):
        calls.append(g.name)
        return original(g)

    monkeypatch.setattr(core, "validate", counting)
    direct_product(p3_mixed, k2_low)
    assert calls == ["p3-mixedxk2-low"]


def test_empty_separator_is_rejected(k2_low, k2_even):
    with pytest.raises(ProductError, match="separator must be a nonempty string"):
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
    for vid, (gu, hu) in zip(p.vertices, itertools.product(g.vertices, h.vertices)):
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
    pairs = list(itertools.product(g.vertices, h.vertices))
    g_mu = {frozenset((u, v)): mu for u, v, mu in g.edges}
    h_mu = {frozenset((u, v)): mu for u, v, mu in h.edges}
    for a in p.vertices:
        for b in p.vertices:
            if a == b:
                continue
            ga, ha = pairs[p.index(a)]
            gb, hb = pairs[p.index(b)]
            mu1 = g_mu.get(frozenset((ga, gb)))
            mu2 = h_mu.get(frozenset((ha, hb)))
            least_sigma = min(g.sigma[g.index(ga)], g.sigma[g.index(gb)],
                              h.sigma[h.index(ha)], h.sigma[h.index(hb)])
            expected = (mu1 is not None and mu2 is not None
                        and min(mu1, mu2) == least_sigma)
            assert is_effective(p, a, b) == expected
            if is_effective(g, ga, gb) and is_effective(h, ha, hb):
                assert is_effective(p, a, b)  # T1: effective pairs always lift
