"""Exact domination and total domination numbers.

Both problems are min-weight set covers over effective neighborhoods:

* dominating: picking u covers u and its effective neighbors (closed
  neighborhood), so every vertex is either picked or effectively adjacent
  to a pick;
* total dominating: picking u covers only its effective neighbors (open
  neighborhood), so every vertex, picks included, needs an effective
  neighbor among the picks. No cover exists iff some vertex has no
  effective neighbor at all.

Optimums are exact rationals: sigma values share a common denominator, so
the search runs on scaled integer weights. Witnesses are tie-broken to the
lexicographically smallest sorted vertex-index tuple, which makes every
result reproducible byte for byte.

brute_force_min is a deliberately naive oracle used to cross-check the
branch-and-bound search. It enumerates subsets with itertools and trusts
only the neighborhood functions from core; it shares no covering or
pruning code with the solvers above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Literal, Optional

from . import _cover
from .core import (
    FuzzyGraph,
    open_neighborhood,
    _effective_adjacency,
)

Kind = Literal["dominating", "total"]

BRUTE_FORCE_LIMIT = 20


class TooLargeError(ValueError):
    """The brute-force oracle refuses instances over BRUTE_FORCE_LIMIT vertices."""


@dataclass(frozen=True)
class DominationResult:
    kind: Kind
    status: Literal["found", "nonexistent"]
    optimum: Optional[Fraction]
    witness: Optional[tuple[str, ...]]

    @property
    def found(self) -> bool:
        return self.status == "found"


def _chosen_mask(g: FuzzyGraph, s: Iterable[str]) -> int:
    mask = 0
    for v in s:
        mask |= 1 << g.index(v)
    return mask


def is_dominating(g: FuzzyGraph, s: Iterable[str]) -> bool:
    """True iff every vertex outside s has an effective neighbor in s."""
    chosen = _chosen_mask(g, s)
    return all(chosen >> i & 1 or m & chosen
               for i, m in enumerate(_effective_adjacency(g)))


def is_total_dominating(g: FuzzyGraph, s: Iterable[str]) -> bool:
    """True iff every vertex of g has an effective neighbor in s."""
    chosen = _chosen_mask(g, s)
    return all(m & chosen for m in _effective_adjacency(g))


def has_total_dominating(g: FuzzyGraph) -> bool:
    """True iff every vertex has at least one effective neighbor."""
    return all(_effective_adjacency(g))


def _solve(g: FuzzyGraph, kind: Kind) -> DominationResult:
    n = len(g.vertices)
    masks = _effective_adjacency(g)
    if kind == "dominating":
        masks = [m | 1 << i for i, m in enumerate(masks)]

    scale = lcm(*(s.denominator for s in g.sigma))
    weights = [s.numerator * (scale // s.denominator) for s in g.sigma]

    solved = _cover.solve_min_cover(masks, weights, (1 << n) - 1)
    if solved is None:
        return DominationResult(kind=kind, status="nonexistent",
                                optimum=None, witness=None)
    weight, mask = solved
    return DominationResult(kind=kind, status="found",
                            optimum=Fraction(weight, scale),
                            witness=g.members(mask))


def min_dominating(g: FuzzyGraph) -> DominationResult:
    """Minimum fuzzy-cardinality dominating set; always exists (V works)."""
    return _solve(g, "dominating")


def min_total_dominating(g: FuzzyGraph) -> DominationResult:
    """Minimum fuzzy-cardinality total dominating set, or nonexistent."""
    return _solve(g, "total")


def brute_force_min(g: FuzzyGraph, kind: Kind) -> DominationResult:
    """Independent oracle: try every subset, smallest weight then smallest tuple.

    Subsets are enumerated by size and then lexicographically, and the best
    is kept under the ordering (fuzzy cardinality, index tuple), which is
    exactly the solver's tie-break. Coverage comes straight from
    open_neighborhood, packed into per-vertex bitmasks, and weights are
    compared as integers after clearing denominators; there is no pruning
    beyond skipping already-beaten candidates.
    """
    n = len(g.vertices)
    if n > BRUTE_FORCE_LIMIT:
        raise TooLargeError(
            f"{n} vertices exceeds the brute-force limit of {BRUTE_FORCE_LIMIT}")
    index = {v: i for i, v in enumerate(g.vertices)}
    neighbor_bits = []
    for v in g.vertices:
        bits = 0
        for u in open_neighborhood(g, v):
            bits |= 1 << index[u]
        neighbor_bits.append(bits)
    scale = lcm(*(w.denominator for w in g.sigma)) if n else 1
    weights = [int(w * scale) for w in g.sigma]
    full = (1 << n) - 1

    best: Optional[tuple[int, tuple[int, ...]]] = None
    for size in range(n + 1):
        for picks in combinations(range(n), size):
            weight = sum(weights[i] for i in picks)
            if best is not None and (weight, picks) >= best:
                continue
            reached = 0
            for i in picks:
                reached |= neighbor_bits[i]
            if kind == "dominating":
                for i in picks:
                    reached |= 1 << i
            if reached == full:
                best = (weight, picks)
    if best is None:
        return DominationResult(kind=kind, status="nonexistent",
                                optimum=None, witness=None)
    return DominationResult(
        kind=kind, status="found", optimum=Fraction(int(best[0]), scale),
        witness=tuple(g.vertices[i] for i in best[1]))
