"""Direct product of two fuzzy graphs.

The product pairs every vertex of the left factor with every vertex of the
right; a product pair is adjacent exactly when BOTH coordinate pairs are
edges in their factors. Vertex membership is the min of the factor sigmas,
edge membership the min of the factor mus. The product therefore never
invents adjacency: sparse factors give sparse products, and a factor
without edges kills every product edge.

Product vertices are named "<left>|<right>" (separator configurable) and
carry a ProductTag so fibers and factor lookups stay exact. Vertex order is
left-major: all pairs of the first left vertex, then the second, and so on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .core import FuzzyGraph, ProductError, ProductTag, _effective_adjacency


class MissingTagError(ProductError):
    """The operation needs a product graph but got an untagged one."""


def _require_tag(product: FuzzyGraph) -> ProductTag:
    if product.product_tag is None:
        raise MissingTagError(
            f"graph {product.name!r} carries no product tag")
    return product.product_tag


def direct_product(
    left: FuzzyGraph,
    right: FuzzyGraph,
    separator: str = "|",
) -> FuzzyGraph:
    """Build the direct product of two fuzzy graphs.

    Both factors are valid because every FuzzyGraph is, and the product is
    checked by its own construction: min(mu1, mu2) never exceeds the least
    of the four sigmas, so validate can only fail on a bug here. The
    constructor's tag check raises ProductError for an empty separator or
    one inside a factor id, which keeps the pair ids collision-free and
    lets files recover every vertex's factor pair by splitting.
    """
    vertices: list[tuple[str, Fraction]] = []
    factors: list[tuple[str, str]] = []
    for gi, gv in enumerate(left.vertices):
        for hi, hv in enumerate(right.vertices):
            vertices.append((f"{gv}{separator}{hv}",
                             min(left.sigma[gi], right.sigma[hi])))
            factors.append((gv, hv))

    edges: list[tuple[str, str, Fraction]] = []
    for gu, gv, mu1 in left.edges:
        for hu, hv, mu2 in right.edges:
            gamma = min(mu1, mu2)
            edges.append((f"{gu}{separator}{hu}", f"{gv}{separator}{hv}", gamma))
            edges.append((f"{gu}{separator}{hv}", f"{gv}{separator}{hu}", gamma))

    tag = ProductTag(left_name=left.name, right_name=right.name,
                     separator=separator, factors=tuple(factors))
    return FuzzyGraph.build(
        name=f"{left.name}x{right.name}",
        vertices=vertices, edges=edges, product_tag=tag)


def _fiber(product: FuzzyGraph, side: str, vid: str) -> tuple[str, ...]:
    tag = _require_tag(product)
    k = 0 if side == "left" else 1
    fiber = tuple(v for v, pair in zip(product.vertices, tag.factors)
                  if pair[k] == vid)
    if not fiber:
        name = tag.left_name if k == 0 else tag.right_name
        raise ProductError(
            f"{vid!r} is not a vertex of the {side} factor {name!r}")
    return fiber


def fiber_left(product: FuzzyGraph, left_vertex: str) -> tuple[str, ...]:
    """Product vertices whose left coordinate is the given factor vertex."""
    return _fiber(product, "left", left_vertex)


def fiber_right(product: FuzzyGraph, right_vertex: str) -> tuple[str, ...]:
    """Product vertices whose right coordinate is the given factor vertex."""
    return _fiber(product, "right", right_vertex)


def missing_product_edge(product: FuzzyGraph) -> Optional[tuple[str, str]]:
    """First coordinate-distinct vertex pair that is not an effective edge.

    Pairs (i, j) with i < j are scanned row-major over vertex positions;
    None means there is no such pair.
    """
    tag = _require_tag(product)
    adj = _effective_adjacency(product)
    for i, (li, ri) in enumerate(tag.factors):
        for j in range(i + 1, len(tag.factors)):
            lj, rj = tag.factors[j]
            if li != lj and ri != rj and not adj[i] >> j & 1:
                return product.vertices[i], product.vertices[j]
    return None


def is_complete_product(product: FuzzyGraph) -> bool:
    """True iff every coordinate-distinct vertex pair is an effective edge.

    Pairs sharing either coordinate are exempt: the product construction can
    never join them, so demanding adjacency there would make completeness
    unsatisfiable for any product with a repeated coordinate.
    """
    return missing_product_edge(product) is None
