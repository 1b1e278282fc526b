"""Fuzzy graph values and the effective-edge machinery.

A fuzzy graph carries a membership degree sigma(v) in [0,1] on every vertex
and mu(e) on every undirected edge. Domination in this package acts only
along *effective* edges, the edges where mu equals min(sigma(u), sigma(v)),
so the neighborhood functions here are all defined over effective edges.

Validity is decided once, by FuzzyGraph's constructor. GraphStructureError
unless: the name is a string; vertices, sigma and edges are tuples, sigma
parallel to vertices; ids are unique tokens without whitespace, commas or
parentheses; weights are Fractions; edges are (u, v, mu) between vertices,
u <= v, strictly sorted by (u, v). ProductError unless a product tag's
factor names and separator are strings, the separator nonempty, and in
every vertex id the separator starts at exactly one position, overlapping
matches counted, with a nonempty factor id on each side. Then any finding
of validate raises InvalidGraphError: every FuzzyGraph is a fuzzy graph in
Rosenfeld's sense (no loops, weights in [0, 1], mu <= min sigma on every
edge), and products, loaded files and generated graphs all pass this gate.

The constructor is the one place that decides effectiveness: it keeps one
bitmask per vertex, bit j of entry i set exactly when {i, j} is an
effective edge, and _effective_adjacency gives them out. Every predicate,
neighborhood, solver and LP row in the package reads those masks.

The fields hold Fractions, but validate and the masks compare integers.
_integer_view multiplies every sigma and mu by scale, the lcm of all their
denominators, which makes each weight an integer and keeps every order and
equality between weights exact.

Each graph owns what is derived from its fields, since they never change.
The constructor's call to validate builds the integer view; the
constructor then keeps the effective masks and the hash, both taken from
that view, and drops the view itself. A graph built to be solved reads its
masks without recomputing anything, while keeping the view on every graph
would cost memory that nothing reads again. The hash is taken over the
name, the ids, the scale, the integer weights and the tag: equal graphs
have equal views, so they still hash equal, and hashing ints is cheap
where Fraction.__hash__ runs in Python. A product's factor pairs (read
back from its ids by _factor_pairs, the one parser of product ids) are
computed when needed and not stored. Each graph also owns its id ->
position map (_positions), so a vertex lookup is one dict read and never
hashes the graph.

_effective_adjacency only returns the stored masks, yet it keeps its
lru_cache, the one cache keyed on graphs: perfbench counts retained graphs
by the entries of this module's lru caches, and reads no count without
one. It holds the 64 graphs used last, so memory stays flat over a corpus
run of any length.

FuzzyGraph is immutable. Vertices keep their input order and every
set-valued result is returned sorted by that order, which makes all
downstream output (witnesses, neighborhoods, serialized files)
deterministic. Edges are canonical, so equal content means equal graphs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import itemgetter
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


class ProductError(GraphError):
    """A product tag that does not describe its graph, or a missing tag."""


def _weight_error(where: str, weight: object) -> GraphStructureError:
    return GraphStructureError(
        f"{where}: weight must be a Fraction (or a decimal string through "
        f"FuzzyGraph.build), got {type(weight).__name__}")


@dataclass(frozen=True)
class ProductTag:
    """Provenance of a product: factor names and the separator in its ids."""

    left_name: str
    right_name: str
    separator: str


@dataclass(frozen=True)
class FuzzyGraph:
    """Immutable fuzzy graph, valid by construction.

    vertices: unique ids in input order; sigma: parallel Fractions; edges:
    (u, v, mu) with u <= v, strictly sorted by (u, v). Construction enforces
    every rule listed in the module docstring.
    """

    name: str
    vertices: tuple[str, ...]
    sigma: tuple[Fraction, ...]
    edges: tuple[tuple[str, str, Fraction], ...]
    product_tag: Optional[ProductTag] = None

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and isinstance(self.vertices, tuple)
                and isinstance(self.sigma, tuple) and isinstance(self.edges, tuple)):
            raise GraphStructureError("name must be a string, other fields tuples")
        if len(self.sigma) != len(self.vertices):
            raise GraphStructureError(
                f"graph {self.name!r} has {len(self.vertices)} vertices but "
                f"{len(self.sigma)} sigma values")
        for vid, s in zip(self.vertices, self.sigma):
            if not isinstance(vid, str) or _ID_RE.match(vid) is None:
                raise GraphStructureError(
                    f"bad vertex id {vid!r}: ids are nonempty tokens without "
                    "whitespace, commas, or parentheses")
            if not isinstance(s, Fraction):
                raise _weight_error(f"sigma({vid})", s)
        if self.product_tag is not None:
            _check_tag(self)
        idx = self._positions
        if len(idx) != len(self.vertices):
            raise GraphStructureError("duplicate vertex id " + repr(next(
                v for i, v in enumerate(self.vertices) if idx[v] != i)))
        pu = pv = ""  # below every id
        for edge in self.edges:
            if not (isinstance(edge, tuple) and len(edge) == 3
                    and isinstance(edge[0], str) and isinstance(edge[1], str)):
                raise GraphStructureError(
                    f"edge {edge!r} is not a (str, str, mu) triple")
            u, v, mu = edge
            if u not in idx or v not in idx:
                raise GraphStructureError(
                    f"edge endpoint {v if u in idx else u!r} is not a vertex")
            # (u, v) <= (pu, pv), compared without building the pairs
            if u > v or u < pu or u == pu and v <= pv:
                raise GraphStructureError(
                    f"duplicate edge ({u},{v})" if u == pu and v == pv else
                    f"edge ({u},{v}) is not oriented u <= v and sorted by pair")
            if not isinstance(mu, Fraction):
                raise _weight_error(f"mu({u},{v})", mu)
            pu, pv = u, v
        violations = validate(self)
        if violations:
            raise InvalidGraphError(self.name, violations)
        # masks and hash from the view validate built, then drop the view
        # (module docstring)
        scale, sigma, edges = self._integer_view
        memo = self.__dict__
        del memo["_integer_view"]
        masks = [0] * len(sigma)
        for i, j, mu in edges:
            # validate found mu <= min(sigma[i], sigma[j]) and i != j, so
            # mu is the min iff it equals either end's sigma
            if mu == sigma[i] or mu == sigma[j]:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
        memo["_masks"] = tuple(masks)
        memo["_hash"] = hash((self.name, self.vertices, scale, tuple(sigma),
                              tuple(edges), self.product_tag))

    def __hash__(self) -> int:
        return self.__dict__["_hash"]

    @classmethod
    def build(
        cls,
        name: str,
        vertices: Iterable[tuple[str, WeightLike]],
        edges: Iterable[tuple[str, str, WeightLike]] = (),
        product_tag: Optional[ProductTag] = None,
    ) -> "FuzzyGraph":
        """Parse string weights, orient each edge u <= v, sort, construct.

        Endpoints must be strings to compare; every other check, duplicates
        in either orientation included, is the constructor's. An edge that
        is already a tuple (u, v, mu) with u <= v and mu not a string is
        kept as it is.
        """
        pairs = list(vertices)
        canon: list[tuple[str, str, Fraction]] = []
        for edge in edges:
            u, v, mu = edge
            if not (isinstance(u, str) and isinstance(v, str)):
                raise GraphStructureError(
                    f"edge endpoints must be strings, got ({u!r}, {v!r})")
            if isinstance(mu, str):
                mu = parse_weight(mu)
            elif u <= v and type(edge) is tuple:
                canon.append(edge)
                continue
            canon.append((u, v, mu) if u <= v else (v, u, mu))
        canon.sort(key=itemgetter(0, 1))  # mu is never compared
        return cls(name=name, vertices=tuple(vid for vid, _ in pairs),
                   sigma=tuple(parse_weight(raw) if isinstance(raw, str) else raw
                               for _, raw in pairs),
                   edges=tuple(canon), product_tag=product_tag)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {vid: i for i, vid in enumerate(self.vertices)}

    @cached_property
    def _integer_view(self) -> tuple[int, list[int], list[tuple[int, int, int]]]:
        """(scale, sigma, edges): every weight times scale, as an integer.

        scale is the lcm of the denominators of all sigma and mu, so
        a < b iff a * scale < b * scale with both sides integers. edges
        holds (i, j, mu) with vertex positions, parallel to self.edges.
        Kept only while the constructor runs (module docstring).
        """
        # one as_integer_ratio call per weight, not one property per part
        sigma_ratios = [s.as_integer_ratio() for s in self.sigma]
        mu_ratios = [mu.as_integer_ratio() for _, _, mu in self.edges]
        denominators = {d for _, d in sigma_ratios}
        denominators.update({d for _, d in mu_ratios})
        scale = lcm(*denominators)
        factor = {d: scale // d for d in denominators}
        sigma = [n * factor[d] for n, d in sigma_ratios]
        idx = self._positions
        edges = [(idx[u], idx[v], n * factor[d])
                 for (u, v, _), (n, d) in zip(self.edges, mu_ratios)]
        return scale, sigma, edges

    def index(self, vid: str) -> int:
        try:
            return self._positions[vid]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {vid!r} in graph {self.name!r}") from None

    def members(self, mask: int) -> tuple[str, ...]:
        """The vertices whose index bit is set in mask, in input order."""
        return tuple(v for i, v in enumerate(self.vertices) if mask >> i & 1)


def _check_tag(g: FuzzyGraph) -> None:
    tag = g.product_tag
    if not (isinstance(tag, ProductTag) and all(isinstance(s, str) for s in (
            tag.left_name, tag.right_name, tag.separator)) and tag.separator):
        raise ProductError(f"product tag of graph {g.name!r}: factor names must "
                           "be strings and the separator must be a nonempty string")
    _factor_pairs(g)


def _factor_pairs(g: FuzzyGraph) -> list[tuple[str, str]]:
    """(left id, right id) of each vertex of product g, in vertex order.

    ProductError unless the separator starts at exactly one position of
    each id (overlaps counted), with a nonempty factor id on each side.
    """
    sep = g.product_tag.separator
    pairs = [vid.partition(sep)[::2] for vid in g.vertices]
    for vid, (left, right) in zip(g.vertices, pairs):
        if not (left and right and vid.rfind(sep) == len(left)):
            raise ProductError(
                f"product vertex {vid!r} must hold the separator {sep!r} exactly "
                "once, overlapping matches counted, between two nonempty factor ids")
    return pairs


@lru_cache(maxsize=64)
def _effective_adjacency(g: FuzzyGraph) -> tuple[int, ...]:
    """Bit j of entry i is set iff {i, j} is an effective edge."""
    return g._masks


def validate(g: FuzzyGraph) -> list[str]:
    """Return every violated fuzzy-graph invariant; empty list means valid.

    FuzzyGraph's constructor calls this and refuses the value on any
    finding, so on a graph that exists it returns []. The findings, in
    order: sigma out of range per vertex, then per edge a loop, mu out of
    range, or mu exceeding min sigma. It reads g._integer_view, which only
    the constructor keeps, until it has taken the masks and the hash.
    """
    scale, sigma, edges = g._integer_view
    if "_masks" in g.__dict__:  # a finished graph keeps no view
        del g.__dict__["_integer_view"]
    violations: list[str] = []
    for vid, s in zip(g.vertices, sigma):
        if not 0 <= s <= scale:
            violations.append(f"sigma out of range on {vid}")
    for (u, v, _), (i, j, mu) in zip(g.edges, edges):
        if i == j:
            violations.append(f"loop on ({u},{v})")
            continue
        if not 0 <= mu <= scale:
            violations.append(f"mu out of range on ({u},{v})")
        if mu > sigma[i] or mu > sigma[j]:
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
