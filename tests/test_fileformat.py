"""On-disk JSON format: canonical serialization, strict parsing, DOT export."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fuzzydom import fileformat
from fuzzydom.core import FuzzyGraph
from fuzzydom.fileformat import (
    FileFormatError,
    ValidationFailedError,
    document_of,
    dumps,
    export_dot,
    graph_of_document,
    load,
    save,
)
from fuzzydom.product import direct_product
from fuzzydom.weights import parse_weight

from .conftest import HOSTILE_FILES, graphs


def test_roundtrip_preserves_everything(p3_mixed, tmp_path):
    path = tmp_path / "g.fg"
    save(p3_mixed, str(path))
    assert load(str(path)) == p3_mixed


def test_product_roundtrip_keeps_the_tag(example_product, tmp_path):
    path = tmp_path / "p.fg"
    save(example_product, str(path))
    back = load(str(path))
    assert back == example_product


def test_serialization_is_byte_stable(example_product):
    assert dumps(example_product) == dumps(example_product)
    assert dumps(example_product).endswith("\n")


def test_weights_are_minimal_decimal_strings(k2_low):
    doc = document_of(k2_low)
    assert doc["vertices"][0]["sigma"] == "0.15"
    assert doc["edges"][0]["mu"] == "0.15"


def test_document_rejects_float_weights():
    doc = {"name": "g", "vertices": [{"id": "a", "sigma": 0.5}], "edges": []}
    with pytest.raises(FileFormatError, match="decimal strings"):
        graph_of_document(doc)


def test_document_rejects_extra_keys():
    doc = {"name": "g", "vertices": [], "edges": [], "comment": "hi"}
    with pytest.raises(FileFormatError, match="unexpected keys"):
        graph_of_document(doc)


def test_document_rejects_missing_keys():
    with pytest.raises(FileFormatError, match="missing keys"):
        graph_of_document({"name": "g", "vertices": []})


def test_invalid_graph_is_refused_with_violations(tmp_path):
    doc = {
        "name": "bad",
        "vertices": [{"id": "a", "sigma": "0.2"}, {"id": "b", "sigma": "0.3"}],
        "edges": [{"u": "a", "v": "b", "mu": "0.25"}],
    }
    path = tmp_path / "bad.fg"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationFailedError) as info:
        load(str(path))
    assert info.value.violations == ["mu exceeds min sigma on (a,b)"]
    assert str(path) in str(info.value)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.fg"
    path.write_text('{"name": "g",,}')
    with pytest.raises(FileFormatError, match=r"parse error at line 1, column"):
        load(str(path))


def test_product_ids_must_split_on_the_separator():
    doc = {
        "name": "p",
        "vertices": [{"id": "ab", "sigma": "0.5"}],
        "edges": [],
        "product_of": {"left": "g", "right": "h", "separator": "|"},
    }
    with pytest.raises(FileFormatError, match="exactly once"):
        graph_of_document(doc)


def test_a_separator_that_overlaps_itself_in_an_id_is_refused():
    # "aa" starts at two positions of "xaaay", so the id has no one split
    doc = _doc(vertices=[{"id": "xaaay", "sigma": "0.5"}],
               product_of={"left": "g", "right": "h", "separator": "aa"})
    with pytest.raises(FileFormatError, match="exactly once"):
        graph_of_document(doc)


def _doc(**changes):
    doc = {"name": "g", "vertices": [{"id": "a", "sigma": "0.5"}], "edges": []}
    return {**doc, **changes}


def _product_doc(vertex_id="a|b", **block_changes):
    block = {"left": "g", "right": "h", "separator": "|", **block_changes}
    return _doc(vertices=[{"id": vertex_id, "sigma": "0.5"}], product_of=block)


@pytest.mark.parametrize("doc, fragment", [
    pytest.param([], "document root must be a JSON object", id="root"),
    pytest.param(_doc(name=3), "name must be a string", id="name"),
    pytest.param(_doc(vertices={}), "vertices and edges must be arrays",
                 id="vertices-array"),
    pytest.param(_doc(edges="ab"), "vertices and edges must be arrays",
                 id="edges-array"),
    pytest.param(_doc(vertices=["a"]), "vertices[0] must be an object",
                 id="vertex-entry"),
    pytest.param(_doc(edges=[["a", "a", "0.1"]]), "edges[0] must be an object",
                 id="edge-entry"),
    pytest.param(_doc(vertices=[{"id": 1, "sigma": "0.5"}]),
                 "vertices[0].id must be a string", id="vertex-id"),
    pytest.param(_doc(edges=[{"u": "a", "v": 2, "mu": "0.1"}]),
                 "edges[0] endpoints must be strings", id="edge-endpoint"),
    pytest.param(_doc(product_of="gxh"), "product_of must be an object",
                 id="product-block"),
    pytest.param(_product_doc(separator=""),
                 "separator must be a nonempty string", id="separator"),
    pytest.param(_product_doc("|b"), "two nonempty factor ids",
                 id="factor-side"),
    pytest.param(_product_doc(left=1), "factor names must be strings",
                 id="factor-name"),
    pytest.param(_doc(vertices=[{"id": "a", "sigma": "0.1234567"}]),
                 "vertices[0].sigma: '0.1234567' has 7 fractional digits",
                 id="over-precise"),
    pytest.param(_doc(edges=[{"u": "a", "v": "a", "mu": "1.5"}]),
                 "edges[0].mu: '1.5' is outside [0, 1]", id="out-of-range"),
    pytest.param(_doc(vertices=[{"id": "a", "sigma": "2"}]),
                 "vertices[0].sigma: '2' is outside [0, 1]",
                 id="integer-out-of-range"),
    pytest.param(_doc(vertices=[{"id": "a", "sigma": "01"}]),
                 "vertices[0].sigma: not a decimal weight literal: '01'",
                 id="leading-zero"),
    pytest.param(_doc(vertices=[{"id": "a", "sigma": "0.5"}] * 2),
                 "duplicate vertex id 'a'", id="graph-error"),
    # weights are parsed once per distinct literal: a bad one still fails at
    # its first path, and a parsed one excuses no later non-string weight
    pytest.param(_doc(vertices=[{"id": "a", "sigma": "0.5"},
                                {"id": "b", "sigma": "0.1234567"},
                                {"id": "c", "sigma": "0.1234567"}],
                      edges=[{"u": "a", "v": "b", "mu": "0.1234567"}]),
                 "vertices[1].sigma: '0.1234567' has 7 fractional digits",
                 id="repeated-bad-literal"),
    pytest.param(_doc(vertices=[{"id": "a", "sigma": "0.5"},
                                {"id": "b", "sigma": 0.5}]),
                 "vertices[1].sigma: weights must be decimal strings, got float",
                 id="parsed-then-float"),
])
def test_document_rejections_name_the_problem(doc, fragment):
    with pytest.raises(FileFormatError, match=re.escape(fragment)):
        graph_of_document(doc)


def test_failed_save_leaves_the_existing_file_untouched(tmp_path):
    original = (Path(__file__).resolve().parent.parent / "graphs"
                / "k2_even.fg").read_bytes()
    path = tmp_path / "k2_even.fg"
    path.write_bytes(original)
    g = FuzzyGraph.build("g", [("a", Fraction(1, 3))])
    with pytest.raises(FileFormatError, match="no exact decimal form"):
        save(g, str(path))
    assert path.read_bytes() == original


def test_document_of_refuses_non_decimal_weights():
    g = FuzzyGraph.build("g", [("a", Fraction(1, 3))])
    with pytest.raises(FileFormatError, match="no exact decimal form"):
        document_of(g)


def test_load_prefixes_the_path_to_schema_errors(tmp_path):
    path = tmp_path / "list.fg"
    path.write_text("[]")
    with pytest.raises(FileFormatError,
                       match=re.escape(f"{path}: document root must be")):
        load(str(path))


@pytest.mark.parametrize("content, message", HOSTILE_FILES)
def test_load_turns_hostile_input_into_file_format_errors(tmp_path, content,
                                                          message):
    path = tmp_path / "hostile.fg"
    path.write_bytes(content)
    with pytest.raises(FileFormatError, match=re.escape(f"{path}: {message}")):
        load(str(path))


def test_load_parses_each_distinct_literal_once(p3_product, tmp_path,
                                                 monkeypatch):
    path = tmp_path / "p.fg"
    save(p3_product, str(path))
    doc = json.loads(path.read_text())
    literals = ([entry["sigma"] for entry in doc["vertices"]]
                + [entry["mu"] for entry in doc["edges"]])
    assert len(set(literals)) < len(literals)
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_weight(text)

    monkeypatch.setattr(fileformat, "parse_weight", counting)
    assert load(str(path)) == p3_product
    assert sorted(parsed) == sorted(set(literals))


def test_invalid_graph_message_names_the_graph_and_every_violation():
    doc = {
        "name": "bad",
        "vertices": [{"id": "a", "sigma": "0.2"}, {"id": "b", "sigma": "0.3"}],
        "edges": [{"u": "a", "v": "a", "mu": "0.1"},
                  {"u": "a", "v": "b", "mu": "0.25"}],
    }
    with pytest.raises(ValidationFailedError) as info:
        graph_of_document(doc)
    assert info.value.violations == ["loop on (a,a)",
                                     "mu exceeds min sigma on (a,b)"]
    assert str(info.value) == ("graph 'bad' is invalid: loop on (a,a); "
                               "mu exceeds min sigma on (a,b)")


def test_loaded_product_supports_fibers(example_product, tmp_path):
    from fuzzydom.product import fiber_left

    path = tmp_path / "p.fg"
    save(example_product, str(path))
    assert fiber_left(load(str(path)), "g2") == ("g2|h1", "g2|h2")


def test_export_dot_styles_effectiveness(p3_mixed, tmp_path):
    path = tmp_path / "g.dot"
    export_dot(p3_mixed, str(path))
    text = path.read_text()
    assert '"g1" [label="g1 (0.2)"];' in text
    assert '"g1" -- "g2" [label="0.1", style=dashed];' in text
    assert '"g2" -- "g3" [label="0.15", style=solid];' in text
    assert text.startswith('graph "p3-mixed" {')


def _reversed_and_swapped(doc: dict) -> dict:
    return {**doc, "edges": [{"u": e["v"], "v": e["u"], "mu": e["mu"]}
                             for e in reversed(doc["edges"])]}


@given(g=graphs(max_vertices=3), h=graphs(max_vertices=3))
def test_reversed_and_swapped_edges_load_canonical(tmp_path_factory, g, h):
    p = direct_product(g, h)
    path = tmp_path_factory.getbasetemp() / "reversed.fg"
    path.write_text(json.dumps(_reversed_and_swapped(document_of(p))))
    back = load(str(path))
    assert back == p and dumps(back) == dumps(p)


def test_an_edge_in_both_orientations_is_refused(p3_product):
    doc = document_of(p3_product)
    first = doc["edges"][0]
    doc["edges"].append({"u": first["v"], "v": first["u"], "mu": first["mu"]})
    with pytest.raises(FileFormatError, match=re.escape(
            f"duplicate edge ({first['u']},{first['v']})")):
        graph_of_document(doc)


@given(graphs())
def test_generated_graphs_roundtrip(g):
    doc = json.loads(dumps(g))
    assert graph_of_document(doc) == g


@given(graphs(max_vertices=3), graphs(max_vertices=3))
def test_generated_products_roundtrip(g, h):
    p = direct_product(g, h)
    assert graph_of_document(json.loads(dumps(p))) == p


# ids, names and separators the writer must escape exactly as json does:
# a quote, a backslash, non-ASCII, a control character, a non-BMP character
_HOSTILE_CHARS = ('"', "\\", "\u00e9", "\x01", "\U0001d11e", "a")
_SEPARATORS = ("|", "__", "\u00e9", '"', "\\", "\x01", "\U0001d11e")
_WEIGHTS = tuple(Fraction(k, 20) for k in range(1, 21))


@st.composite
def _hostile_graphs(draw, alphabet):
    ids = draw(st.lists(st.text(alphabet, min_size=1, max_size=3),
                        max_size=3, unique=True))
    sigma = {v: draw(st.sampled_from(_WEIGHTS)) for v in ids}
    edges = [(u, v, min(sigma[u], sigma[v]) / draw(st.sampled_from((1, 2))))
             for i, u in enumerate(ids) for v in ids[i + 1:]
             if draw(st.booleans())]
    name = draw(st.text(_HOSTILE_CHARS + ("\n", " "), max_size=4))
    return FuzzyGraph.build(name, sigma.items(), edges)


@st.composite
def _graphs_and_products(draw):
    """A factor pair, hostile or generated, and their product under a
    separator that none of their ids contains."""
    separator = draw(st.sampled_from(_SEPARATORS))
    alphabet = [c for c in _HOSTILE_CHARS if c not in separator]
    g, h = (draw(st.one_of(_hostile_graphs(alphabet), graphs(max_vertices=3)))
            for _ in range(2))
    return g, h, direct_product(g, h, separator=separator)


@given(_graphs_and_products())
def test_dumps_is_the_stdlib_indent_encoding(graphs_and_product):
    for g in graphs_and_product:
        assert dumps(g) == json.dumps(document_of(g), indent=2) + "\n"
