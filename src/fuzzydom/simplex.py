"""Two-phase simplex over exact rationals, pivoting in integers.

Solves the level-1 covering program: min sum(x) subject to
sum(x[j] for j in row) >= 1 for each row, x >= 0, where each row is a
tuple of column indices. This is the one program alpha.py poses; it
scales the solution to its level alpha itself. Results are Fractions.

The pivots run on an integer tableau T with one common divisor d > 0: the
true tableau is always T / d, and every basic column of T is d times a unit
vector. It starts as the 0/1 rows with right-hand side 1, a surplus column
of -1 and an artificial column of +1 per row, and d = 1, so the starting
basis is the identity. A pivot on p = T[r][c] replaces every other row's
entry by (p * T[i][j] - T[i][c] * T[r][j]) // d, leaves the pivot row as it
is, and sets d to p. That division is exact (fraction-free elimination,
Bareiss, Math. Comp. 22, 1968): every entry of T is a minor of the starting
matrix, so T stays integral. x is read as T[i][rhs] / d. Reduced costs are
compared after multiplying by d > 0, and the leaving ratios
T[i][rhs] / T[i][c] by cross-multiplication, so every sign test, ratio
comparison and Bland choice is the one rational pivots would make. Every
pivot is on a positive entry, so d stays positive.

Phase 1 never ends on a feasible basis with an artificial in it, so there
is nothing to drive out before phase 2. Let B be the final phase-1 basis
and z the sum of those rows of B^-1 whose basic variable is an
artificial. Surplus s_l has column -e_l and phase-1 cost 0, so its
reduced cost is z_l: 0 if s_l is basic, and at least 0 at the phase-1
optimum if not, so z >= 0. If artificial a_k is basic, B^-1 e_k is the
unit vector of its own row, so z_k = 1. The phase-1 value, the sum of the
basic artificials, is z . 1 >= z_k = 1 > 0. So any basic artificial at
the end of phase 1 means the program is infeasible, and a feasible one
leaves none.

Bland's rule is used unconditionally for both the entering and the leaving
choice: covering programs are highly degenerate and exact arithmetic makes
cycling a real possibility. Bland's rule is not the fastest pivoting rule,
but it is what keeps the chosen basis, and so every reported assignment,
fixed. The solver is fully deterministic: identical input produces an
identical basic optimal solution. Unit costs with x >= 0 bound the
objective below, so the solve can end only in "optimal" or "infeasible".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Vector = tuple[Fraction, ...]


def simplex_minimize(n: int, rows: Sequence[Sequence[int]]) -> Optional[Vector]:
    """Exact optimum of min sum(x), sum(x[j] for j in row) >= 1, x >= 0.

    Returns x at a basic optimal solution, or None if infeasible (some row
    is empty).
    """
    m = len(rows)
    # Each constraint becomes the equality row.x - s_i + a_i = 1
    # with surplus s_i >= 0 and artificial a_i >= 0.
    # Columns: x (n) | s (m) | artificial (m) | rhs.
    width = n + 2 * m
    tab: list[list[int]] = []
    for i, row in enumerate(rows):
        line = [0] * width + [1]
        for j in row:
            line[j] = 1
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
                raise ArithmeticError("unbounded program despite unit costs")
            pivot(leaving, entering)

    # Phase 1: minimize the artificial total.
    optimize([0] * (n + m) + [1] * m, width)
    if any(col >= n + m for col in basis):
        return None

    # Phase 2 never reads the artificial columns again.
    tab = [line[:n + m] + line[-1:] for line in tab]
    optimize([1] * n + [0] * m, n + m)

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][-1], d)
    return tuple(x)
