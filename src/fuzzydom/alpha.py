"""alpha-domination numbers via exact linear programming.

A total alpha-dominating function puts a nonnegative rational f(v) on every
vertex so that every open effective neighborhood sums to at least alpha;
gamma_t_alpha is the minimum total weight of such a function. The closed
variant (gamma_alpha) sums over closed neighborhoods instead and is always
feasible because every vertex belongs to its own closed neighborhood.

The LP is tiny (one variable and one constraint per vertex) and solved
exactly by the two-phase simplex in simplex.py. brute_force_lp_min is an
independent cross-check: it enumerates every square subsystem of active
constraints, solves each by Gaussian elimination, and takes the best
feasible corner. It shares no code with the simplex.

proof_function_total builds the explicit vertex function that transfers a
total dominating set of a product graph down to its left factor: f(g) caps
the covered mass of g's fiber at 2*alpha. The harness checks what this
construction does and does not guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Optional

from .core import (
    FuzzyGraph,
    UnknownVertexError,
    _effective_adjacency,
    closed_neighborhood,
    fuzzy_cardinality,
    open_neighborhood,
)
from .product import _require_tag, fiber_left
from .simplex import simplex_minimize

Mode = Literal["open", "closed"]


@dataclass(frozen=True)
class LpInstance:
    """Covering program: for each vertex, sum of f over a neighborhood >= alpha."""

    vertex_ids: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]  # column indices per constraint
    alpha: Fraction
    mode: Mode

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class AlphaFunction:
    """A vertex assignment with the alpha level and neighborhood mode it targets."""

    vertex_ids: tuple[str, ...]
    values: tuple[Fraction, ...]
    alpha: Fraction
    mode: Mode

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if len(self.vertex_ids) != len(self.values):
            raise ValueError("assignment length mismatch")
        if any(v < 0 for v in self.values):
            raise ValueError("assignment values must be nonnegative")

    @property
    def weight(self) -> Fraction:
        return sum(self.values, Fraction(0))


def build_lp(g: FuzzyGraph, alpha: Fraction, mode: Mode) -> LpInstance:
    """One variable per vertex, one covering row per vertex neighborhood."""
    masks = _effective_adjacency(g)
    if mode == "closed":
        masks = [m | 1 << i for i, m in enumerate(masks)]
    columns = range(len(g.vertices))
    rows = tuple(tuple(j for j in columns if m >> j & 1) for m in masks)
    return LpInstance(vertex_ids=g.vertices, rows=rows,
                      alpha=Fraction(alpha), mode=mode)


def _solve_to_function(g: FuzzyGraph, alpha: Fraction,
                       mode: Mode) -> Optional[AlphaFunction]:
    lp = build_lp(g, alpha, mode)
    n = len(lp.vertex_ids)
    zero = Fraction(0)
    one = Fraction(1)
    dense = []
    for cols in lp.rows:
        row = [zero] * n
        for j in cols:
            row[j] = one
        dense.append(row)
    solved = simplex_minimize([one] * n, dense, [lp.alpha] * len(lp.rows))
    if solved is None:
        return None
    _, assignment = solved
    return AlphaFunction(vertex_ids=g.vertices, values=assignment,
                         alpha=Fraction(alpha), mode=mode)


def gamma_t_alpha(g: FuzzyGraph, alpha: Fraction) -> Optional[AlphaFunction]:
    """Minimum-weight function covering every open neighborhood to alpha.

    None when infeasible, i.e. when some vertex has no effective neighbor.
    The optimum value is the returned function's weight.
    """
    return _solve_to_function(g, Fraction(alpha), "open")


def gamma_alpha(g: FuzzyGraph, alpha: Fraction) -> AlphaFunction:
    """Closed-neighborhood variant; always feasible (f = alpha everywhere works)."""
    result = _solve_to_function(g, Fraction(alpha), "closed")
    assert result is not None, "closed covering program cannot be infeasible"
    return result


def verify_alpha_function(g: FuzzyGraph, f: AlphaFunction) -> list[str]:
    """Vertices whose neighborhood sum falls short of f.alpha; empty = ok."""
    values = {vid: val for vid, val in zip(f.vertex_ids, f.values)}
    missing = [v for v in g.vertices if v not in values]
    if missing:
        raise UnknownVertexError(
            f"assignment misses vertices: {', '.join(missing)}")
    neighborhood = open_neighborhood if f.mode == "open" else closed_neighborhood
    violated = []
    for v in g.vertices:
        total = sum((values[u] for u in neighborhood(g, v)), Fraction(0))
        if total < f.alpha:
            violated.append(v)
    return violated


def proof_function_total(product: FuzzyGraph, s: Iterable[str],
                         alpha: Fraction) -> AlphaFunction:
    """Left-factor function f(g) = min(2*alpha, covered fuzzy mass of g's fiber).

    s is a vertex set of the product. The result targets level 2*alpha in
    open mode; whether it actually meets that level is for the caller (the
    theorem harness) to test, no guarantee is made here.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    tag = _require_tag(product)
    chosen = {product.vertices[product.index(v)] for v in s}
    cap = 2 * alpha
    ids = tuple(dict.fromkeys(left_id for left_id, _ in tag.factors))
    values = tuple(
        min(cap, fuzzy_cardinality(product, chosen & set(fiber_left(product, g))))
        for g in ids)
    return AlphaFunction(vertex_ids=ids, values=values, alpha=cap, mode="open")


def brute_force_lp_min(lp: LpInstance) -> Optional[Fraction]:
    """Independent LP oracle: best objective over all basic points.

    Candidate corners come from choosing n constraints (covering rows plus
    nonnegativity bounds) to hold with equality and solving the square
    system exactly. The polyhedron {x >= 0, rows.x >= alpha} is pointed, so
    when it is nonempty the optimum of the unit-cost objective sits at such
    a corner, and when no corner is feasible the program is infeasible.
    Only usable at small sizes: C(rows + n, n) systems are solved.
    """
    from itertools import combinations

    n = len(lp.vertex_ids)
    zero = Fraction(0)
    one = Fraction(1)
    if n == 0:
        return zero

    # constraint list: (coefficients, rhs) for rows.x >= rhs
    constraints: list[tuple[list[Fraction], Fraction]] = []
    for cols in lp.rows:
        row = [zero] * n
        for j in cols:
            row[j] = one
        constraints.append((row, lp.alpha))
    for j in range(n):
        bound = [zero] * n
        bound[j] = one
        constraints.append((bound, zero))

    def solve_square(idx: tuple[int, ...]) -> Optional[list[Fraction]]:
        a = [constraints[i][0][:] for i in idx]
        b = [constraints[i][1] for i in idx]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                return None  # singular: not a corner-defining subsystem
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            inv = one / a[col][col]
            a[col] = [v * inv for v in a[col]]
            b[col] *= inv
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                    b[r] -= f * b[col]
        return b

    best: Optional[Fraction] = None
    for idx in combinations(range(len(constraints)), n):
        x = solve_square(idx)
        if x is None:
            continue
        if any(sum((c * v for c, v in zip(coeffs, x)), zero) < rhs
               for coeffs, rhs in constraints):
            continue
        value = sum(x, zero)
        if best is None or value < best:
            best = value
    return best
