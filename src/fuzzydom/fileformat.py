"""Graph files, canonical serialization, and DOT export.

The on-disk format is a strict JSON document with membership degrees kept
as decimal strings, never floats, so values survive a round trip exactly:

    {
      "name": "G",
      "vertices": [{"id": "g1", "sigma": "0.15"}, ...],
      "edges": [{"u": "g1", "v": "g2", "mu": "0.15"}, ...],
      "product_of": {"left": "G", "right": "H", "separator": "|"}
    }

product_of is present only on product graphs. Each vertex id of such a
document must hold the separator exactly once, overlapping matches counted
("aa" is twice in "xaaay"), between two nonempty factor ids, so splitting
recovers every vertex's factor pair; the graph's constructor checks this.

Serialization is canonical: vertices in input order, edges sorted by
(min id, max id), weights printed with minimal digits. Saving the same
graph twice is byte-identical, which the determinism tests rely on.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import AbstractSet, Any

from .core import FuzzyGraph, GraphError, InvalidGraphError, ProductTag, is_effective
from .weights import WeightError, format_weight, is_decimal_exact, parse_weight


class FileFormatError(ValueError):
    """Malformed document: bad JSON, bad schema, or bad weight literals."""


class ValidationFailedError(FileFormatError):
    """The document parsed but describes an invalid fuzzy graph."""

    def __init__(self, message: str, violations: list[str]):
        self.violations = violations
        super().__init__(message)


def _require_keys(obj: dict, required: AbstractSet[str],
                  optional: AbstractSet[str], where: str) -> None:
    keys = set(obj)
    missing = required - keys
    extra = keys - required - optional
    if missing:
        raise FileFormatError(f"{where}: missing keys {sorted(missing)}")
    if extra:
        raise FileFormatError(f"{where}: unexpected keys {sorted(extra)}")


_VERTEX_KEYS = frozenset({"id", "sigma"})
_EDGE_KEYS = frozenset({"u", "v", "mu"})


def _new_weight(value: Any, literals: dict[str, Fraction], section: str,
                i: int, key: str) -> Fraction:
    """Parse the weight at section[i].key, a literal not in literals yet.

    A literal enters literals only after parse_weight accepts it, so a bad
    one is reported at its first occurrence.
    """
    if not isinstance(value, str):
        raise FileFormatError(
            f"{section}[{i}].{key}: weights must be decimal strings, "
            f"got {type(value).__name__}")
    try:
        weight = literals[value] = parse_weight(value)
    except WeightError as exc:
        raise FileFormatError(f"{section}[{i}].{key}: {exc}") from exc
    return weight


def document_of(g: FuzzyGraph) -> dict:
    """JSON-ready dict for a graph; weights must have exact decimal forms."""
    for label, value in [(f"sigma({v})", s) for v, s in zip(g.vertices, g.sigma)] + \
                        [(f"mu({u},{v})", mu) for u, v, mu in g.edges]:
        if not is_decimal_exact(value):
            raise FileFormatError(
                f"{label} = {value} has no exact decimal form of at most six "
                "digits and cannot be serialized")
    doc: dict = {
        "name": g.name,
        "vertices": [{"id": v, "sigma": format_weight(s)}
                     for v, s in zip(g.vertices, g.sigma)],
        "edges": [{"u": u, "v": v, "mu": format_weight(mu)}
                  for u, v, mu in g.edges],
    }
    if g.product_tag is not None:
        doc["product_of"] = {
            "left": g.product_tag.left_name,
            "right": g.product_tag.right_name,
            "separator": g.product_tag.separator,
        }
    return doc


def graph_of_document(doc: Any) -> FuzzyGraph:
    """Parse a document dict; an invalid graph raises ValidationFailedError."""
    if not isinstance(doc, dict):
        raise FileFormatError("document root must be a JSON object")
    _require_keys(doc, {"name", "vertices", "edges"}, {"product_of"}, "document")
    name = doc["name"]
    if not isinstance(name, str):
        raise FileFormatError("name must be a string")
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise FileFormatError("vertices and edges must be arrays")

    # each weight literal is looked up here and parsed by _new_weight
    # only on its first occurrence; each edge is oriented u <= v as it is
    # read, so build keeps the tuple
    literals: dict[str, Fraction] = {}
    vertices = []
    for i, entry in enumerate(doc["vertices"]):
        if not isinstance(entry, dict):
            raise FileFormatError(f"vertices[{i}] must be an object")
        if entry.keys() != _VERTEX_KEYS:
            _require_keys(entry, _VERTEX_KEYS, set(), f"vertices[{i}]")
        vid, sigma = entry["id"], entry["sigma"]
        if not isinstance(vid, str):
            raise FileFormatError(f"vertices[{i}].id must be a string")
        weight = literals.get(sigma) if type(sigma) is str else None
        if weight is None:
            weight = _new_weight(sigma, literals, "vertices", i, "sigma")
        vertices.append((vid, weight))
    edges = []
    for i, entry in enumerate(doc["edges"]):
        if not isinstance(entry, dict):
            raise FileFormatError(f"edges[{i}] must be an object")
        # three entries, each one expected, are exactly the expected keys;
        # on any other set _require_keys raises and names the difference
        try:
            if len(entry) != 3:
                raise KeyError
            u, v, mu = entry["u"], entry["v"], entry["mu"]
        except KeyError:
            _require_keys(entry, _EDGE_KEYS, set(), f"edges[{i}]")
        if not isinstance(u, str) or not isinstance(v, str):
            raise FileFormatError(f"edges[{i}] endpoints must be strings")
        weight = literals.get(mu) if type(mu) is str else None
        if weight is None:
            weight = _new_weight(mu, literals, "edges", i, "mu")
        edges.append((u, v, weight) if u <= v else (v, u, weight))

    tag = None
    if "product_of" in doc:
        block = doc["product_of"]
        if not isinstance(block, dict):
            raise FileFormatError("product_of must be an object")
        _require_keys(block, {"left", "right", "separator"}, set(), "product_of")
        tag = ProductTag(block["left"], block["right"], block["separator"])

    try:
        return FuzzyGraph.build(name=name, vertices=vertices, edges=edges,
                                product_tag=tag)
    except InvalidGraphError as exc:
        raise ValidationFailedError(str(exc), exc.violations) from exc
    except GraphError as exc:
        raise FileFormatError(str(exc)) from exc


def dumps(g: FuzzyGraph) -> str:
    return json.dumps(document_of(g), indent=2) + "\n"


def save(g: FuzzyGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(g))


def load(path: str) -> FuzzyGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: document nests too deeply") from exc
    try:
        return graph_of_document(doc)
    except ValidationFailedError as exc:
        raise ValidationFailedError(f"{path}: {exc}", exc.violations) from exc
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _dot_quote(token: str) -> str:
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: FuzzyGraph, path: str) -> None:
    """Undirected DOT drawing: solid edges are effective, dashed are not."""
    lines = [f"graph {_dot_quote(g.name)} {{"]
    for vid, s in zip(g.vertices, g.sigma):
        label = f"{vid} ({format_weight(s)})"
        lines.append(f"  {_dot_quote(vid)} [label={_dot_quote(label)}];")
    for u, v, mu in g.edges:
        style = "solid" if is_effective(g, u, v) else "dashed"
        lines.append(
            f"  {_dot_quote(u)} -- {_dot_quote(v)} "
            f"[label={_dot_quote(format_weight(mu))}, style={style}];")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
