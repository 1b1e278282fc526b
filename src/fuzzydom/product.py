"""Direct product of two fuzzy graphs.

The product pairs every vertex of the left factor with every vertex of the
right; a product pair is adjacent exactly when BOTH coordinate pairs are
edges in their factors. Vertex membership is the min of the factor sigmas,
edge membership the min of the factor mus. The product therefore never
invents adjacency: sparse factors give sparse products, and a factor
without edges kills every product edge.

Product vertices are named "<left>|<right>" (separator configurable) and
carry a ProductTag, which names the separator that fibers split each id at
to read back its factor pair. Vertex order is left-major: all pairs of the
first left vertex, then the second, and so on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .core import (FuzzyGraph, ProductError, ProductTag, _effective_adjacency,
                   _factor_pairs)


class MissingTagError(ProductError):
    """The operation needs a product graph but got an untagged one."""


def _product_pairs(product: FuzzyGraph) -> list[tuple[str, str]]:
    """The factor pair of each vertex, read from the ids by _factor_pairs."""
    if product.product_tag is None:
        raise MissingTagError(
            f"graph {product.name!r} carries no product tag")
    return _factor_pairs(product)


def direct_product(
    left: FuzzyGraph,
    right: FuzzyGraph,
    separator: str = "|",
) -> FuzzyGraph:
    """Build the direct product of two fuzzy graphs.

    Both factors are valid because every FuzzyGraph is, and the product is
    checked by its own construction: min(mu1, mu2) never exceeds the least
    of the four sigmas, so validate can only fail on a bug here. The
    constructor's tag check raises ProductError unless the separator starts
    at exactly one position of every id (overlaps counted), so each id it
    accepts is collision-free and splits back into its own pair.
    """
    vertices = [(f"{gv}{separator}{hv}", min(gs, hs))
                for gv, gs in zip(left.vertices, left.sigma)
                for hv, hs in zip(right.vertices, right.sigma)]

    edges: list[tuple[str, str, Fraction]] = []
    for gu, gv, mu1 in left.edges:
        for hu, hv, mu2 in right.edges:
            gamma = min(mu1, mu2)
            edges.append((f"{gu}{separator}{hu}", f"{gv}{separator}{hv}", gamma))
            edges.append((f"{gu}{separator}{hv}", f"{gv}{separator}{hu}", gamma))

    return FuzzyGraph.build(
        name=f"{left.name}x{right.name}", vertices=vertices, edges=edges,
        product_tag=ProductTag(left.name, right.name, separator))


def _fiber(product: FuzzyGraph, side: str, vid: str) -> tuple[str, ...]:
    k = 0 if side == "left" else 1
    fiber = tuple(v for v, pair in zip(product.vertices, _product_pairs(product))
                  if pair[k] == vid)
    if not fiber:
        tag = product.product_tag
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
    pairs = _product_pairs(product)
    adj = _effective_adjacency(product)
    for i, (li, ri) in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            lj, rj = pairs[j]
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
