"""Exact two-phase simplex on hand-checked covering programs."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzydom.simplex import simplex_minimize

F = Fraction


def test_single_constraint():
    # min x1 + x2 s.t. x1 + x2 >= 3
    value, x = simplex_minimize([F(1), F(1)], [[F(1), F(1)]], [F(3)])
    assert value == 3
    assert sum(x) == 3


def test_two_overlapping_constraints():
    # min x1+x2+x3 with x1+x2 >= 1 and x2+x3 >= 1: put everything on x2
    value, x = simplex_minimize(
        [F(1)] * 3,
        [[F(1), F(1), F(0)], [F(0), F(1), F(1)]],
        [F(1), F(1)])
    assert value == 1
    assert x[1] == 1


def test_infeasible_row_returns_none():
    # 0 >= 1 cannot be satisfied
    assert simplex_minimize([F(1)], [[F(0)]], [F(1)]) is None


def test_rejects_negative_rhs():
    with pytest.raises(ValueError, match="right-hand sides"):
        simplex_minimize([F(1)], [[F(1)]], [F(-2)])


def test_redundant_duplicate_rows():
    value, _ = simplex_minimize(
        [F(1), F(1)],
        [[F(1), F(1)], [F(1), F(1)], [F(1), F(0)]],
        [F(2), F(2), F(1)])
    assert value == 2


@pytest.mark.parametrize("number", [int, F])
def test_fractional_optimum_stays_exact(number):
    # triangle covering: min x1+x2+x3 with each pair summing to alpha;
    # int and Fraction rows and costs give the same exact Fractions
    alpha = F(3, 10)
    rows = [[number(v) for v in row] for row in ((1, 1, 0), (1, 0, 1), (0, 1, 1))]
    value, x = simplex_minimize([number(1)] * 3, rows, [alpha] * 3)
    assert (value, x) == (F(9, 20), (F(3, 20),) * 3)  # 3 * alpha / 2
    assert all(type(v) is F for v in (value, *x))


def test_rejects_negative_costs():
    with pytest.raises(ValueError):
        simplex_minimize([F(-1)], [[F(1)]], [F(1)])


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60)
def test_solution_is_feasible_and_supported(n, data):
    rows = []
    m = data.draw(st.integers(min_value=1, max_value=4))
    for _ in range(m):
        rows.append([F(data.draw(st.integers(min_value=0, max_value=2)))
                     for _ in range(n)])
    rhs = [F(data.draw(st.integers(min_value=0, max_value=3))) for _ in range(m)]
    solved = simplex_minimize([F(1)] * n, rows, rhs)
    if solved is None:
        # some row demanded a positive rhs with an all-zero left side
        assert any(all(c == 0 for c in row) and b > 0
                   for row, b in zip(rows, rhs))
        return
    value, x = solved
    assert value == sum(x)
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(c * v for c, v in zip(row, x)) >= b


def _dot(a, x):
    return sum((c * v for c, v in zip(a, x)), F(0))


def _solve_square(a, b):
    """x with a.x = b by Gaussian elimination over Fractions; None if singular."""
    a = [row[:] + [rhs] for row, rhs in zip(a, b)]
    n = len(a)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n] for row in a]


def _best_corner(costs, rows, rhs):
    """Least cost over every basic feasible point; None when there is none.

    x >= 0 makes the feasible set pointed, and nonnegative costs bound it
    below, so a feasible program attains its optimum at a corner: a point
    where n linearly independent constraints, rows or bounds, hold with
    equality.
    """
    n = len(costs)
    bounds = [([F(int(i == j)) for i in range(n)], F(0)) for j in range(n)]
    constraints = list(zip(rows, rhs)) + bounds
    best = None
    for chosen in combinations(constraints, n):
        x = _solve_square([a for a, _ in chosen], [b for _, b in chosen])
        if x is None or any(_dot(a, x) < b for a, b in constraints):
            continue
        value = _dot(costs, x)
        if best is None or value < best:
            best = value
    return best


@st.composite
def _programs(draw):
    """Rows with negative and zero entries over a denominator of their own."""
    n = draw(st.integers(min_value=0, max_value=4))
    m = draw(st.integers(min_value=0, max_value=4))
    rows = []
    for _ in range(m):
        den = draw(st.integers(min_value=1, max_value=7))
        rows.append([F(draw(st.integers(min_value=-3, max_value=3)), den)
                     for _ in range(n)])
    rhs = [F(draw(st.integers(min_value=0, max_value=5)),
             draw(st.integers(min_value=1, max_value=7))) for _ in range(m)]
    costs = [F(draw(st.integers(min_value=0, max_value=3)),
               draw(st.integers(min_value=1, max_value=3))) for _ in range(n)]
    return costs, rows, rhs


# Phase 1 ends with the first row's artificial basic at 0, and the first
# nonzero entry of that row over the x and surplus columns is negative, so
# driving it out negates the integer tableau; phase 2 then pivots on s_1.
# Without the negation d turns negative and phase 2 stops at x = 0.
@example(program=([F(1, 2), F(3)], [[F(0), F(-2)], [F(1), F(-1)]],
                  [F(0), F(3)]),
         k=F(3, 2))
# Rows over different denominators: a solver that scales each row by its own
# lcm weights phase 1's artificials unequally, and at 2/3 of this rhs it
# ends on another basis.
@example(program=([F(3, 2), F(3, 2), F(1)],
                  [[F(3, 4), F(3, 4), F(-1, 2)],
                   [F(1, 6), F(0), F(1, 3)],
                   [F(-1, 3), F(-1, 3), F(1)]],
                  [F(0), F(0), F(3, 4)]),
         k=F(2, 3))
@given(_programs(),
       st.builds(F, st.integers(min_value=1, max_value=6),
                 st.integers(min_value=1, max_value=6)))
@settings(max_examples=200)
def test_optimum_is_the_best_corner_and_scales_with_rhs(program, k):
    costs, rows, rhs = program
    solved = simplex_minimize(costs, rows, rhs)
    scaled = simplex_minimize(costs, rows, [k * b for b in rhs])
    best = _best_corner(costs, rows, rhs)
    if best is None:
        assert solved is None and scaled is None
        return
    value, x = solved
    assert value == best == _dot(costs, x)
    assert all(v >= 0 for v in x)
    assert all(_dot(row, x) >= b for row, b in zip(rows, rhs))
    # k scales every leaving ratio alike, so the pivots are the same
    assert scaled == (k * value, tuple(k * v for v in x))
