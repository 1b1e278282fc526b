"""Fuzzy graph values and the effective-edge machinery.

A fuzzy graph carries a membership degree sigma(v) in [0,1] on every vertex
and mu(e) on every undirected edge. Domination in this package acts only
along *effective* edges, the edges where mu equals min(sigma(u), sigma(v)),
so the neighborhood functions here are all defined over effective edges.

Validity is decided once, when the value is made: FuzzyGraph's
constructor runs validate and raises InvalidGraphError on any violation, so
every FuzzyGraph in existence is a fuzzy graph in Rosenfeld's sense (no
loops, every weight in [0, 1], mu <= min sigma on every edge). Products,
loaded files and generated graphs all pass through that one gate.

_effective_adjacency is the one place that decides effectiveness: it gives
one bitmask per vertex, bit j of entry i set exactly when {i, j} is an
effective edge. Every predicate, neighborhood, solver and LP row in the
package reads those masks.

Each graph owns its id -> position map (_positions), so a vertex lookup is
one dict read and never hashes the graph. _effective_adjacency is the one
cache keyed on graphs left, because perfbench counts retained graphs by the
entries of this module's lru caches.

FuzzyGraph is immutable. Vertices keep their input order and every
set-valued result is returned sorted by that order, which makes all
downstream output (witnesses, neighborhoods, serialized files)
deterministic. Edges are stored canonically sorted so that two graphs with
the same content compare equal regardless of construction order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Union

from .weights import parse_weight

WeightLike = Union[Fraction, str]

_ID_RE = re.compile(r"[^\s,()]+\Z")


class GraphError(ValueError):
    """Base for graph construction and lookup errors."""


class GraphStructureError(GraphError):
    """The raw data cannot be assembled into a graph at all."""


class InvalidGraphError(GraphStructureError):
    """The graph breaks a fuzzy-graph invariant; violations lists each one."""

    def __init__(self, name: str, violations: list[str]):
        self.violations = violations
        super().__init__(f"graph {name!r} is invalid: " + "; ".join(violations))


class UnknownVertexError(GraphError):
    """A vertex id is not present in the graph."""


def _coerce_weight(value: WeightLike, where: str) -> Fraction:
    if isinstance(value, str):
        return parse_weight(value)
    if not isinstance(value, Fraction):
        raise GraphStructureError(f"{where}: weight must be a rational or string")
    return value


def _check_id(vid: str) -> str:
    if not isinstance(vid, str) or _ID_RE.match(vid) is None:
        raise GraphStructureError(
            f"bad vertex id {vid!r}: ids are nonempty tokens without "
            "whitespace, commas, or parentheses")
    return vid


@dataclass(frozen=True)
class ProductTag:
    """Provenance of a product graph: which factor pair each vertex came from.

    factors is parallel to the owning graph's vertex tuple.
    """

    left_name: str
    right_name: str
    separator: str
    factors: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class FuzzyGraph:
    """Immutable fuzzy graph, valid by construction.

    vertices: ids in input order; sigma: parallel membership degrees;
    edges: (u, v, mu) triples with u < v as strings, sorted by (u, v).
    Construction raises InvalidGraphError when validate finds a violation.
    """

    name: str
    vertices: tuple[str, ...]
    sigma: tuple[Fraction, ...]
    edges: tuple[tuple[str, str, Fraction], ...]
    product_tag: Optional[ProductTag] = None

    def __post_init__(self) -> None:
        violations = validate(self)
        if violations:
            raise InvalidGraphError(self.name, violations)

    @classmethod
    def build(
        cls,
        name: str,
        vertices: Iterable[tuple[str, WeightLike]],
        edges: Iterable[tuple[str, str, WeightLike]] = (),
        product_tag: Optional[ProductTag] = None,
    ) -> "FuzzyGraph":
        """Assemble a graph, rejecting structurally ambiguous input.

        Weights are decimal strings (parse_weight) or Fractions. Rejected
        here: bad id tokens, duplicate vertex ids, unknown edge endpoints,
        duplicate unordered edge pairs, weights of any other type (int and
        bool included). The constructor then rejects out-of-range weights,
        loops and mu > min sigma with InvalidGraphError.
        """
        ids: list[str] = []
        sigmas: list[Fraction] = []
        seen: set[str] = set()
        for vid, raw in vertices:
            _check_id(vid)
            if vid in seen:
                raise GraphStructureError(f"duplicate vertex id {vid!r}")
            seen.add(vid)
            ids.append(vid)
            sigmas.append(_coerce_weight(raw, f"sigma({vid})"))
        canon: list[tuple[str, str, Fraction]] = []
        pairs: set[tuple[str, str]] = set()
        for u, v, raw in edges:
            if u not in seen:
                raise GraphStructureError(f"edge endpoint {u!r} is not a vertex")
            if v not in seen:
                raise GraphStructureError(f"edge endpoint {v!r} is not a vertex")
            a, b = (u, v) if u <= v else (v, u)
            if (a, b) in pairs:
                raise GraphStructureError(f"duplicate edge ({a},{b})")
            pairs.add((a, b))
            canon.append((a, b, _coerce_weight(raw, f"mu({a},{b})")))
        canon.sort(key=lambda e: (e[0], e[1]))
        return cls(name=name, vertices=tuple(ids), sigma=tuple(sigmas),
                   edges=tuple(canon), product_tag=product_tag)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {vid: i for i, vid in enumerate(self.vertices)}

    def index(self, vid: str) -> int:
        try:
            return self._positions[vid]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {vid!r} in graph {self.name!r}") from None

    def members(self, mask: int) -> tuple[str, ...]:
        """The vertices whose index bit is set in mask, in input order."""
        return tuple(v for i, v in enumerate(self.vertices) if mask >> i & 1)


@lru_cache(maxsize=None)
def _effective_adjacency(g: FuzzyGraph) -> tuple[int, ...]:
    """Bit j of entry i is set iff {i, j} is an effective edge."""
    masks = [0] * len(g.vertices)
    idx = g._positions
    for u, v, mu in g.edges:
        i, j = idx[u], idx[v]
        if mu == min(g.sigma[i], g.sigma[j]):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return tuple(masks)


def validate(g: FuzzyGraph) -> list[str]:
    """Return every violated fuzzy-graph invariant; empty list means valid.

    FuzzyGraph's constructor calls this and refuses the value on any
    finding, so on a graph that exists it returns []. The findings, in
    order: sigma out of range per vertex, then per edge a loop, mu out of
    range, or mu exceeding min sigma.
    """
    violations: list[str] = []
    idx = g._positions
    for vid, s in zip(g.vertices, g.sigma):
        if not 0 <= s <= 1:
            violations.append(f"sigma out of range on {vid}")
    for u, v, mu in g.edges:
        if u == v:
            violations.append(f"loop on ({u},{v})")
            continue
        if not 0 <= mu <= 1:
            violations.append(f"mu out of range on ({u},{v})")
        if mu > min(g.sigma[idx[u]], g.sigma[idx[v]]):
            violations.append(f"mu exceeds min sigma on ({u},{v})")
    return violations


def is_effective(g: FuzzyGraph, u: str, v: str) -> bool:
    """True iff {u,v} is an edge attaining mu = min(sigma(u), sigma(v))."""
    return bool(_effective_adjacency(g)[g.index(u)] >> g.index(v) & 1)


def open_neighborhood(g: FuzzyGraph, v: str) -> tuple[str, ...]:
    """Effective neighbors of v, sorted by vertex input order."""
    return g.members(_effective_adjacency(g)[g.index(v)])


def closed_neighborhood(g: FuzzyGraph, v: str) -> tuple[str, ...]:
    """Effective neighbors of v plus v itself, sorted by input order."""
    i = g.index(v)
    return g.members(_effective_adjacency(g)[i] | 1 << i)


def is_complete(g: FuzzyGraph) -> bool:
    """True iff every distinct vertex pair is an effective edge."""
    n = len(g.vertices)
    return all(m.bit_count() == n - 1 for m in _effective_adjacency(g))


def fuzzy_order(g: FuzzyGraph) -> Fraction:
    """Sum of sigma over all vertices."""
    return sum(g.sigma, Fraction(0))


def fuzzy_cardinality(g: FuzzyGraph, s: Iterable[str]) -> Fraction:
    """Sum of sigma over the given vertex set."""
    return sum((g.sigma[g.index(v)] for v in set(s)), Fraction(0))


def effective_degree_counts(g: FuzzyGraph) -> tuple[int, ...]:
    """Number of effective neighbors per vertex, in input order."""
    return tuple(m.bit_count() for m in _effective_adjacency(g))


def is_crisp_connected(g: FuzzyGraph) -> bool:
    """Connectivity over the support of the edge set (edges with mu > 0).

    Effectiveness does not matter here, only that the edge carries any
    positive membership. The empty graph counts as connected; a single
    vertex does too.
    """
    n = len(g.vertices)
    if n <= 1:
        return True
    idx = g._positions
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, mu in g.edges:
        if mu == 0:
            continue
        adj[idx[u]].append(idx[v])
        adj[idx[v]].append(idx[u])
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == n


def effective_edges(g: FuzzyGraph) -> tuple[tuple[str, str, Fraction], ...]:
    """The subset of edges along which domination acts."""
    adj = _effective_adjacency(g)
    idx = g._positions
    return tuple(e for e in g.edges if adj[idx[e[0]]] >> idx[e[1]] & 1)
