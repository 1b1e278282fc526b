"""Two-phase simplex over exact rationals, pivoting in integers.

Solves min c.x subject to rows.x >= rhs, x >= 0. Inputs are ints or
fractions.Fraction, read only through their numerators and denominators;
results are Fractions. Intended for the small covering programs this
package produces (0/1 int rows, unit costs, right-hand sides alpha), but
written for any nonnegative costs and rows.

The pivots run on an integer tableau T with one common divisor d > 0: the
true tableau is always T / d, and every basic column of T is d times a unit
vector. It starts integral with d = 1. Every row entry and right-hand side
is multiplied by one common multiple L of their denominators, the surplus
and artificial columns keep their -1 and +1, so the starting basis is the
identity. Costs stay outside the tableau, scaled to integers by their own
common multiple. A pivot on p = T[r][c] replaces every other row's entry by
(p * T[i][j] - T[i][c] * T[r][j]) // d, leaves the pivot row as it is, and
sets d to p. That division is exact (fraction-free elimination, Bareiss,
Math. Comp. 22, 1968): every entry of T is a minor of the starting matrix,
so T stays integral. x is read as T[i][rhs] / d.

Scaling changes no pivot. Multiplying every row and right-hand side by the
same L is the same program with the surplus and artificial variables
measured in units of 1/L, so each tableau column and each reduced cost is
a positive multiple of its rational counterpart: every sign test, every
ratio comparison and every Bland choice comes out the same, and x is
unchanged. Reduced costs are compared after multiplying by d > 0, and the
leaving ratios T[i][rhs] / T[i][c] by cross-multiplication. The multiple
must be common: scaling each row by its own would weight the phase-1
artificials unequally, and phase 1 could then end on another basis.

The pivots of both phases are positive, so d stays positive. Driving a
leftover artificial out of the basis after phase 1 may pivot on a negative
entry; the whole tableau and d are negated first, which leaves T / d as it
was and makes that pivot positive.

Bland's rule is used unconditionally for both the entering and the leaving
choice: covering programs are highly degenerate and exact arithmetic makes
cycling a real possibility. Bland's rule is not the fastest pivoting rule,
but it is what keeps the chosen basis, and so every reported assignment,
fixed. The solver is fully deterministic: identical input produces an
identical basic optimal solution.

Costs and right-hand sides must be nonnegative; ValueError otherwise.
Nonnegative costs with x >= 0 bound the objective below, so the solve can
end only in "optimal" or "infeasible". Nonnegative right-hand sides let
every row start from its own artificial column in phase 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

Vector = tuple[Fraction, ...]


def _integers(values: Sequence[int | Fraction], scale: int) -> list[int]:
    return [v.numerator * (scale // v.denominator) for v in values]


def simplex_minimize(
    costs: Sequence[int | Fraction],
    rows: Sequence[Sequence[int | Fraction]],
    rhs: Sequence[int | Fraction],
) -> Optional[tuple[Fraction, Vector]]:
    """Exact optimum of min costs.x, rows.x >= rhs, x >= 0.

    Returns (value, x) at a basic optimal solution, or None if infeasible.
    """
    n = len(costs)
    m = len(rows)
    if any(c < 0 for c in costs):
        raise ValueError("costs must be nonnegative to keep the program bounded")
    if len(rhs) != m or any(len(r) != n for r in rows):
        raise ValueError("inconsistent constraint dimensions")
    if any(b < 0 for b in rhs):
        raise ValueError("right-hand sides must be nonnegative")
    if m == 0:
        return Fraction(0), (Fraction(0),) * n

    scale = lcm(*(v.denominator for row in rows for v in row),
                *(b.denominator for b in rhs))

    # Each constraint becomes the equality L*row.x - s_i + a_i = L*rhs_i
    # with surplus s_i >= 0 and artificial a_i >= 0.
    # Columns: x (n) | s (m) | artificial (m) | rhs.
    width = n + 2 * m
    tab: list[list[int]] = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        line = _integers(row, scale) + [0] * (2 * m) + _integers((b,), scale)
        line[n + i] = -1
        line[n + m + i] = 1
        tab.append(line)
    basis = [n + m + i for i in range(m)]
    d = 1

    def pivot(row: int, col: int) -> None:
        nonlocal d
        p = tab[row][col]
        top = tab[row]
        for i in range(m):
            if i != row:
                f = tab[i][col]
                tab[i] = [(p * v - f * t) // d for v, t in zip(tab[i], top)]
        d = p
        basis[row] = col

    def optimize(cost_of: list[int], usable: int) -> None:
        # usable = number of leading columns eligible to enter
        while True:
            priced = [(cost_of[basis[i]], tab[i]) for i in range(m)
                      if cost_of[basis[i]]]
            entering = -1
            for j in range(usable):
                if j in basis:
                    continue
                # d times the reduced cost c_j - sum_i c_B(i) * T[i][j] / d
                if d * cost_of[j] < sum(c * line[j] for c, line in priced):
                    entering = j
                    break  # Bland: first eligible index
            if entering < 0:
                return
            leaving = -1
            for i in range(m):
                coef = tab[i][entering]
                if coef > 0:
                    if leaving < 0:
                        leaving = i
                        continue
                    # T[i][rhs] / coef against the best ratio so far
                    here = tab[i][-1] * tab[leaving][entering]
                    best = tab[leaving][-1] * coef
                    if here < best or (here == best and basis[i] < basis[leaving]):
                        leaving = i
            if leaving < 0:
                raise ArithmeticError("unbounded program despite nonnegative costs")
            pivot(leaving, entering)

    # Phase 1: minimize the artificial total.
    optimize([0] * (n + m) + [1] * m, width)
    if any(basis[i] >= n + m and tab[i][-1] > 0 for i in range(m)):
        return None

    # Drive leftover artificials out of the basis (they sit at value 0).
    # Each row is a row of d * B^-1 times [A | -I | I]; a row zero over the
    # x and s columns would make that row of B^-1 zero, so a real column
    # with a nonzero entry always exists.
    for i in range(m):
        if basis[i] >= n + m:
            j = next(j for j in range(n + m) if tab[i][j] != 0)
            if tab[i][j] < 0:
                tab = [[-v for v in line] for line in tab]
                d = -d
            pivot(i, j)

    # Phase 2 never reads the artificial columns again.
    tab = [line[:n + m] + line[-1:] for line in tab]
    cost_scale = lcm(*(c.denominator for c in costs))
    phase2 = _integers(costs, cost_scale) + [0] * m
    optimize(phase2, n + m)

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][-1], d)
    value = Fraction(sum(phase2[basis[i]] * tab[i][-1] for i in range(m)),
                     cost_scale * d)
    return value, tuple(x)
