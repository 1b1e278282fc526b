"""Two-phase simplex over exact rationals.

Solves min c.x subject to rows.x >= rhs, x >= 0, with every number a
fractions.Fraction. Intended for the small covering programs this package
produces (0/1 rows, positive right-hand sides, unit costs), but written
for any nonnegative costs and rows.

Bland's rule is used unconditionally for both the entering and the leaving
choice: covering programs are highly degenerate and exact arithmetic makes
cycling a real possibility. Bland's rule is not the fastest pivoting rule,
and the simplex is a measurable share of a claim-checking run, but it is
what keeps the chosen basis, and so every reported assignment, fixed. The
solver is fully deterministic: identical input produces an identical basic
optimal solution.

Costs and right-hand sides must be nonnegative; ValueError otherwise.
Nonnegative costs with x >= 0 bound the objective below, so the solve can
end only in "optimal" or "infeasible". Nonnegative right-hand sides let
every row start from its own artificial column in phase 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Vector = tuple[Fraction, ...]


def simplex_minimize(
    costs: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> Optional[tuple[Fraction, Vector]]:
    """Exact optimum of min costs.x, rows.x >= rhs, x >= 0.

    Returns (value, x) at a basic optimal solution, or None if infeasible.
    """
    n = len(costs)
    m = len(rows)
    zero = Fraction(0)
    one = Fraction(1)
    costs = [Fraction(c) for c in costs]
    if any(c < 0 for c in costs):
        raise ValueError("costs must be nonnegative to keep the program bounded")
    if len(rhs) != m or any(len(r) != n for r in rows):
        raise ValueError("inconsistent constraint dimensions")
    if any(b < 0 for b in rhs):
        raise ValueError("right-hand sides must be nonnegative")
    if m == 0:
        return zero, tuple([zero] * n)

    # Each constraint becomes the equality row.x - s_i + a_i = rhs_i with
    # surplus s_i >= 0 and artificial a_i >= 0.
    # Columns: x (n) | s (m) | artificial (m).
    width = n + 2 * m
    tab: list[list[Fraction]] = []
    for i in range(m):
        line = ([Fraction(v) for v in rows[i]] + [zero] * (2 * m)
                + [Fraction(rhs[i])])
        line[n + i] = -one
        line[n + m + i] = one
        tab.append(line)
    basis = [n + m + i for i in range(m)]

    def pivot(row: int, col: int) -> None:
        piv = tab[row][col]
        tab[row] = [v / piv for v in tab[row]]
        for r in range(m):
            if r != row and tab[r][col] != 0:
                factor = tab[r][col]
                tab[r] = [v - factor * p for v, p in zip(tab[r], tab[row])]
        basis[row] = col

    def optimize(cost_of: list[Fraction], usable: int) -> None:
        # usable = number of leading columns eligible to enter
        while True:
            dual = [cost_of[basis[i]] for i in range(m)]
            entering = -1
            for j in range(usable):
                if j in basis:
                    continue
                reduced = cost_of[j] - sum(
                    (dual[i] * tab[i][j] for i in range(m)), zero)
                if reduced < 0:
                    entering = j
                    break  # Bland: first eligible index
            if entering < 0:
                return
            leaving = -1
            best_ratio: Optional[Fraction] = None
            for i in range(m):
                coef = tab[i][entering]
                if coef > 0:
                    ratio = tab[i][width] / coef
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio and basis[i] < basis[leaving])):
                        best_ratio = ratio
                        leaving = i
            if leaving < 0:
                raise ArithmeticError("unbounded program despite nonnegative costs")
            pivot(leaving, entering)

    # Phase 1: minimize the artificial total.
    phase1 = [zero] * (n + m) + [one] * m
    optimize(phase1, width)
    infeasibility = sum((phase1[basis[i]] * tab[i][width] for i in range(m)), zero)
    if infeasibility > 0:
        return None

    # Drive leftover artificials out of the basis (they sit at value 0).
    # Each row is a row of B^-1 times [A | -I | I]; a row zero over the x
    # and s columns would make that row of B^-1 zero, so a real column with
    # a nonzero entry always exists.
    for i in range(m):
        if basis[i] >= n + m:
            pivot(i, next(j for j in range(n + m) if tab[i][j] != 0))

    phase2 = list(costs) + [zero] * (2 * m)
    optimize(phase2, n + m)

    x = [zero] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][width]
    value = sum((c * v for c, v in zip(costs, x)), zero)
    return value, tuple(x)
