"""Total-input contracts: every input gives a graph or a documented error.

FuzzyGraph's constructor takes any field values and either makes a graph
that equals its FuzzyGraph.build twin or raises GraphError. graph_of_document
takes any JSON value and either makes a graph or raises FileFormatError, and
the CLI turns that into exit status 0 or 1. Nothing else escapes: no
TypeError from an unhashable field, no AttributeError from a weight that is
not a Fraction, no KeyError from an unknown endpoint. The alpha level of
the LP path, and an AlphaFunction's level and values, are ints or
Fractions; anything else is a TypeError naming its type, not a level
rounded from a float.

The strategies start from well-formed values and corrupt a few of them, so
that both outcomes of each contract occur often.
"""

import json
import os
import tempfile
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuzzydom._cover import solve_min_cover
from fuzzydom.alpha import (AlphaFunction, LpInstance, build_lp, gamma_alpha,
                            gamma_t_alpha, proof_function_total)
from fuzzydom.cli import main
from fuzzydom.core import FuzzyGraph, GraphError, ProductTag, _effective_adjacency
from fuzzydom.fileformat import FileFormatError, document_of, graph_of_document
from fuzzydom.weights import is_decimal_exact

_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 2), st.floats(0, 1),
    st.sampled_from(["", "a b", "a,b", "0.5", "a|x|y", "|x"]),
    st.lists(st.just("a"), max_size=2))
_GOOD_WEIGHT = st.sampled_from(
    [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)])


@st.composite
def _base_fields(draw):
    """Fields of a graph or product that is valid unless mu exceeds min sigma."""
    if draw(st.booleans()):
        left = draw(st.lists(st.sampled_from("abc"), max_size=2, unique=True))
        right = draw(st.lists(st.sampled_from("xyz"), max_size=2, unique=True))
        vertices = tuple(f"{g}|{h}" for g in left for h in right)
        tag = ProductTag("G", "H", "|")
    else:
        vertices = tuple(draw(st.lists(st.sampled_from(["a", "b", "c", "d"]),
                                       max_size=4, unique=True)))
        tag = None
    sigma = tuple(draw(_GOOD_WEIGHT) for _ in vertices)
    pairs = sorted((u, v) for i, u in enumerate(vertices) for v in vertices[i:])
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)
                  if pairs else st.just([]))
    edges = tuple((u, v, draw(_GOOD_WEIGHT)) for u, v in sorted(chosen))
    return {"name": "g", "vertices": vertices, "sigma": sigma, "edges": edges,
            "product_tag": tag}


def _replace(seq, i, value):
    return seq[:i] + (value,) + seq[i + 1:]


@st.composite
def _raw_fields(draw):
    """_base_fields with up to two corruptions applied."""
    fields = draw(_base_fields())
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["vertices", "sigma", "edges", "edges",
                                    "product_tag", "name", "container"]))
        value = fields[key] if key != "container" else None
        if key == "name":
            fields[key] = draw(_JUNK)
        elif key == "container":
            field = draw(st.sampled_from(["vertices", "sigma", "edges"]))
            fields[field] = list(fields[field])
        elif key == "product_tag":
            fields[key] = draw(st.one_of(
                _JUNK,
                st.just(ProductTag("G", "H", "")),
                st.just(ProductTag("G", "H", "x")),
                st.just(ProductTag("G", "H", "|x")),
                st.just(ProductTag("G", None, "|")),
                st.just(ProductTag(["G"], "H", "|")),
                st.just(ProductTag("G", "H", ["|"]))))
        elif not isinstance(value, tuple):
            continue
        elif not value or draw(st.booleans()):
            fields[key] = value + (draw(_JUNK) if key != "edges" else draw(
                st.tuples(st.sampled_from(["a", "b", "a|x", "q"]),
                          st.sampled_from(["a", "b", "b|y", "q"]),
                          st.one_of(_GOOD_WEIGHT, _JUNK))),)
        else:
            i = draw(st.integers(0, len(value) - 1))
            if key == "vertices":
                new = draw(st.one_of(_JUNK, st.sampled_from(value)))
            elif key == "sigma":
                new = draw(st.one_of(_JUNK, st.just(Fraction(3, 2)),
                                     st.just(Fraction(-1, 2))))
            elif isinstance(value[i], tuple) and len(value[i]) == 3:
                u, v, mu = value[i]
                new = draw(st.sampled_from([
                    (v, u, mu), (u, v), [u, v, mu], (u, v, 0.5), (u, 1, mu),
                    (u, "zz", mu), value[i - 1]]))
            else:
                continue
            fields[key] = _replace(value, i, new)
    return fields


@settings(max_examples=150)
@given(_raw_fields())
def test_constructor_gives_the_build_twin_or_a_graph_error(fields):
    try:
        g = FuzzyGraph(**fields)
    except GraphError:
        return
    twin = FuzzyGraph.build(fields["name"], zip(fields["vertices"], fields["sigma"]),
                            fields["edges"], fields["product_tag"])
    assert g == twin
    assert hash(g) == hash(twin)
    assert len(_effective_adjacency(g)) == len(g.vertices)
    if all(is_decimal_exact(w) for w in (*g.sigma, *(mu for _, _, mu in g.edges))):
        assert graph_of_document(document_of(g)) == g  # every graph survives a file


_JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 2), st.floats(0, 1),
    st.sampled_from(["", "a", "b", "a|x", "b|y", "|", "0.5", "1.5", "x"]))
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["id", "sigma", "u", "v", "mu", "name"]),
                        inner, max_size=3)),
    max_leaves=4)


def _mostly(strategy):
    """strategy nine times in ten, any JSON value otherwise."""
    return st.sampled_from(range(10)).flatmap(lambda k: _JSON if k == 9 else strategy)


_ID_TEXT = st.sampled_from(["a|x", "b|y", "a|y", "b|x", "a", "a b", "a|x|y", "|x"])
_WEIGHT_TEXT = st.sampled_from(["0.25", "0.5", "1", ".5", "0", "1.5", "0.1234567"])
_VERTEX = st.fixed_dictionaries(
    {"id": _mostly(_ID_TEXT), "sigma": _mostly(_WEIGHT_TEXT)})
_EDGE = st.fixed_dictionaries(
    {"u": _mostly(_ID_TEXT), "v": _mostly(_ID_TEXT), "mu": _mostly(_WEIGHT_TEXT)})
_PRODUCT_OF = st.fixed_dictionaries({
    "left": _mostly(st.just("G")), "right": _mostly(st.just("H")),
    "separator": _mostly(st.sampled_from(["|", "|", "", "x"]))})
_DOCUMENT = st.fixed_dictionaries(
    {"name": _mostly(st.sampled_from(["g", ""])),
     "vertices": _mostly(st.lists(_mostly(_VERTEX), max_size=4)),
     "edges": _mostly(st.lists(_mostly(_EDGE), max_size=3))},
    optional={"product_of": _mostly(_PRODUCT_OF)})
DOCUMENTS = _mostly(_DOCUMENT)


@settings(max_examples=120)
@given(DOCUMENTS)
def test_any_json_value_loads_or_raises_file_format_error(doc):
    try:
        g = graph_of_document(doc)
    except FileFormatError:
        return
    assert graph_of_document(document_of(g)) == g


@settings(max_examples=10)
@given(DOCUMENTS)
def test_cli_on_any_document_exits_zero_or_one(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.fg")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["validate", path]) in (0, 1)
        assert main(["dominate", path]) in (0, 1)


_K2 = FuzzyGraph.build("k2", [("u", "0.2"), ("v", "0.2")], [("u", "v", "0.2")])


@pytest.mark.parametrize("alpha", [0.1, "0.1", Decimal("0.1"), True, None],
                         ids=["float", "str", "Decimal", "bool", "None"])
def test_alpha_must_be_an_int_or_a_fraction(alpha):
    calls = (lambda: build_lp(_K2, alpha, "open"), lambda: gamma_alpha(_K2, alpha),
             lambda: gamma_t_alpha(_K2, alpha),
             lambda: proof_function_total(_K2, (), alpha),
             lambda: LpInstance(_K2.vertices, ((1,), (0,)), alpha, "open"),
             lambda: AlphaFunction(_K2.vertices, (0, 0), alpha, "open"),
             lambda: AlphaFunction(_K2.vertices, (alpha, 0), 1, "open"))
    for call in calls:
        with pytest.raises(TypeError, match=f"got {type(alpha).__name__}$"):
            call()


@pytest.mark.parametrize("mode", ["Closed", "total", ""])
def test_lp_mode_must_be_open_or_closed(mode):
    for call in (lambda: build_lp(_K2, 1, mode),
                 lambda: LpInstance(_K2.vertices, ((1,), (0,)), 1, mode),
                 lambda: AlphaFunction(_K2.vertices, (0, 0), 1, mode)):
        with pytest.raises(ValueError, match="mode must be 'open' or 'closed'"):
            call()


def test_cover_kernel_refuses_mismatched_lengths():
    with pytest.raises(ValueError, match="must have equal length"):
        solve_min_cover([1], [1, 2])


def test_alpha_may_be_an_int():
    f = gamma_alpha(_K2, 1)
    assert (f.alpha, f.values) == (Fraction(1), (Fraction(1), Fraction(0)))
