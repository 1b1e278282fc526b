"""alpha-domination numbers via exact linear programming.

A total alpha-dominating function puts a nonnegative rational f(v) on every
vertex so that every open effective neighborhood sums to at least alpha;
gamma_t_alpha is the minimum total weight of such a function. The closed
variant (gamma_alpha) sums over closed neighborhoods instead and is always
feasible because every vertex belongs to its own closed neighborhood.
Nothing caps f(v) at 1: at levels above 1 an optimum can need more. At
levels up to 1 a cap would never bind: lowering a value above 1 to 1
leaves every row through it at 1 >= alpha or more, and costs less, so no
optimum has a value above 1.

The LP is tiny (one variable and one constraint per vertex). The simplex
in simplex.py solves it exactly at level 1, and the level-alpha
assignment is alpha times that solution. That is exact, not a shortcut:
alpha scales only the right-hand-side column, so every tableau entry of
that column at level alpha is alpha times its value at level 1, and the
other columns and the reduced costs do not depend on it. Every ratio
test and every Bland choice comes out the same, the solve ends on the same
basis, and x(alpha) = alpha * x(1). The LpInstance and AlphaFunction
constructors coerce alpha to a Fraction after checking that it is an int
or a Fraction above 0, and refuse a mode other than open or closed;
AlphaFunction also takes only int or Fraction values. The function the
LP path returns carries lp.alpha. brute_force_lp_min is an
independent cross-check: it enumerates every square subsystem of active
constraints at level alpha, solves each by fraction-free integer
elimination, and takes the best feasible corner. It shares no code with
the simplex.

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
    open_neighborhood,
)
from .product import _product_pairs
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
        object.__setattr__(self, "alpha", _level(self.alpha))
        _require_mode(self.mode)


@dataclass(frozen=True)
class AlphaFunction:
    """A vertex assignment with the alpha level and neighborhood mode it targets."""

    vertex_ids: tuple[str, ...]
    values: tuple[Fraction, ...]
    alpha: Fraction
    mode: Mode

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _level(self.alpha))
        _require_mode(self.mode)
        if len(self.vertex_ids) != len(self.values):
            raise ValueError("assignment length mismatch")
        for v in self.values:
            if type(v) not in (int, Fraction):
                raise TypeError("assignment values must be ints or "
                                f"Fractions, got {type(v).__name__}")
        if any(v < 0 for v in self.values):
            raise ValueError("assignment values must be nonnegative")

    @property
    def weight(self) -> Fraction:
        return sum(self.values, Fraction(0))


def _level(alpha: int | Fraction) -> Fraction:
    """alpha as a Fraction; TypeError for anything but an int or a Fraction,
    ValueError unless it is above 0."""
    if type(alpha) not in (int, Fraction):
        raise TypeError(
            f"alpha must be an int or a Fraction, got {type(alpha).__name__}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return alpha if type(alpha) is Fraction else Fraction(alpha)


def _require_mode(mode: Mode) -> None:
    if mode not in ("open", "closed"):
        raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")


def build_lp(g: FuzzyGraph, alpha: int | Fraction, mode: Mode) -> LpInstance:
    """One variable per vertex, one covering row per vertex neighborhood."""
    masks = _effective_adjacency(g)
    if mode == "closed":
        masks = [m | 1 << i for i, m in enumerate(masks)]
    columns = range(len(g.vertices))
    rows = tuple(tuple(j for j in columns if m >> j & 1) for m in masks)
    return LpInstance(vertex_ids=g.vertices, rows=rows, alpha=alpha, mode=mode)


def _solve_to_function(g: FuzzyGraph, alpha: Fraction,
                       mode: Mode) -> Optional[AlphaFunction]:
    lp = build_lp(g, alpha, mode)
    x = simplex_minimize(len(lp.vertex_ids), lp.rows)
    if x is None:
        return None
    return AlphaFunction(vertex_ids=lp.vertex_ids,
                         values=tuple(lp.alpha * v for v in x),
                         alpha=lp.alpha, mode=mode)


def gamma_t_alpha(g: FuzzyGraph, alpha: Fraction) -> Optional[AlphaFunction]:
    """Minimum-weight function covering every open neighborhood to alpha.

    None when infeasible, i.e. when some vertex has no effective neighbor.
    The optimum value is the returned function's weight.
    """
    return _solve_to_function(g, alpha, "open")


def gamma_alpha(g: FuzzyGraph, alpha: Fraction) -> AlphaFunction:
    """Closed-neighborhood variant; always feasible (f = alpha everywhere works)."""
    result = _solve_to_function(g, alpha, "closed")
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
    alpha = _level(alpha)
    pairs = _product_pairs(product)
    chosen = {product.vertices[product.index(v)] for v in s}
    cap = 2 * alpha
    mass = dict.fromkeys((g for g, _ in pairs), Fraction(0))
    for v, (g, _), sigma in zip(product.vertices, pairs, product.sigma):
        if v in chosen:
            mass[g] += sigma
    return AlphaFunction(vertex_ids=tuple(mass), alpha=cap, mode="open",
                         values=tuple(min(cap, m) for m in mass.values()))


def _exact_quotient(numerator: int, divisor: int) -> int:
    quotient, remainder = divmod(numerator, divisor)
    assert remainder == 0, "a fraction-free elimination step must divide exactly"
    return quotient


def brute_force_lp_min(lp: LpInstance) -> Optional[Fraction]:
    """Independent LP oracle: best objective over all basic points.

    Candidate corners come from choosing n constraints (covering rows plus
    nonnegativity bounds) to hold with equality and solving the square
    system exactly. The polyhedron {x >= 0, rows.x >= alpha} is pointed, so
    when it is nonempty the optimum of the unit-cost objective sits at such
    a corner, and when no corner is feasible the program is infeasible.
    Only usable at small sizes: C(rows + n, n) systems are solved.

    Each system is solved in integers. The right-hand sides are alpha times
    its denominator q, and fraction-free Gauss-Jordan elimination (Bareiss,
    Math. Comp. 22, 1968) ends with every diagonal entry equal to the
    system's determinant D (up to sign) and the right-hand column equal to
    D * q * x. Every division in it is exact, which is asserted.
    """
    from itertools import combinations

    n = len(lp.vertex_ids)
    if n == 0:
        return Fraction(0)
    q = lp.alpha.denominator

    # constraint list: (coefficients, q * rhs) for rows.x >= rhs
    constraints: list[tuple[list[int], int]] = []
    for cols in lp.rows:
        row = [0] * n
        for j in cols:
            row[j] = 1
        constraints.append((row, lp.alpha.numerator))
    for j in range(n):
        bound = [0] * n
        bound[j] = 1
        constraints.append((bound, 0))

    def solve_square(idx: tuple[int, ...]) -> Optional[tuple[int, list[int]]]:
        """(D, y) with D > 0 and x = y / (D * q); None when singular."""
        a = [constraints[i][0] + [constraints[i][1]] for i in idx]
        det = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                return None  # singular: not a corner-defining subsystem
            a[col], a[piv] = a[piv], a[col]
            p = a[col][col]
            for r in range(n):
                f = a[r][col]
                # a row with f = 0 is left as it is when p equals det
                if r != col and (f != 0 or p != det):
                    a[r] = [_exact_quotient(p * v - f * w, det)
                            for v, w in zip(a[r], a[col])]
            det = p
        y = [row[n] for row in a]
        return (det, y) if det > 0 else (-det, [-v for v in y])

    best: Optional[Fraction] = None
    for idx in combinations(range(len(constraints)), n):
        solved = solve_square(idx)
        if solved is None:
            continue
        det, y = solved
        # rows.x >= rhs, multiplied through by det * q > 0
        if any(sum(c * v for c, v in zip(coeffs, y)) < rhs * det
               for coeffs, rhs in constraints):
            continue
        value = Fraction(sum(y), det * q)
        if best is None or value < best:
            best = value
    return best
