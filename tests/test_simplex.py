"""Exact two-phase simplex on covering programs, and alpha applied by scaling."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from fuzzydom.alpha import gamma_alpha, gamma_t_alpha
from fuzzydom.simplex import simplex_minimize

from .conftest import graphs

F = Fraction


def test_single_constraint():
    # min x1 + x2 s.t. x1 + x2 >= 1: Bland enters x1 first
    assert simplex_minimize(2, [(0, 1)]) == (1, 0)


def test_two_overlapping_constraints():
    # min x1+x2+x3 with x1+x2 >= 1 and x2+x3 >= 1: put everything on x2
    assert simplex_minimize(3, [(0, 1), (1, 2)]) == (0, 1, 0)


def test_infeasible_row_returns_none():
    # an empty row reads 0 >= 1
    assert simplex_minimize(1, [()]) is None
    assert simplex_minimize(2, [(0, 1), ()]) is None


def test_redundant_duplicate_rows():
    # x1's first pivot leaves the second row's artificial basic at 0;
    # phase 1 then pivots it out on a surplus before it ends
    assert simplex_minimize(2, [(0, 1), (0, 1), (0,)]) == (1, 0)


def test_fractional_optimum_stays_exact():
    # triangle covering: min x1+x2+x3 with each pair summing to 1
    x = simplex_minimize(3, [(0, 1), (0, 2), (1, 2)])
    assert x == (F(1, 2),) * 3
    assert all(type(v) is F for v in x)


@st.composite
def _programs(draw):
    """n columns and up to four index rows, empty and repeated rows included."""
    n = draw(st.integers(min_value=0, max_value=4))
    rows = draw(st.lists(st.sets(st.integers(min_value=0, max_value=n - 1))
                         if n else st.just(set()), max_size=4))
    return n, [tuple(sorted(row)) for row in rows]


@given(_programs())
@settings(max_examples=100)
def test_solution_is_feasible_and_supported(program):
    n, rows = program
    x = simplex_minimize(n, rows)
    if x is None:
        assert () in rows
        return
    assert len(x) == n
    assert all(v >= 0 for v in x)
    assert all(sum(x[j] for j in row) >= 1 for row in rows)


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


@given(_programs(),
       st.builds(F, st.integers(min_value=1, max_value=6),
                 st.integers(min_value=1, max_value=6)))
@settings(max_examples=200)
def test_optimum_is_the_best_corner_and_scales_with_rhs(program, k):
    n, rows = program
    dense = [[F(int(j in row)) for j in range(n)] for row in rows]
    x = simplex_minimize(n, rows)
    best = _best_corner([F(1)] * n, dense, [F(1)] * len(rows))
    if best is None:
        assert x is None
        assert _best_corner([F(1)] * n, dense, [k] * len(rows)) is None
        return
    assert sum(x) == best
    # k * x is feasible at level k and attains that level's best corner
    kx = [k * v for v in x]
    assert all(_dot(row, kx) >= k for row in dense)
    assert _best_corner([F(1)] * n, dense, [k] * len(rows)) == sum(kx)


@given(graphs(max_vertices=6), st.sampled_from([gamma_alpha, gamma_t_alpha]),
       st.sampled_from([F(1, 10), F(3, 7), F(1), F(8, 5)]),
       st.sampled_from([F(1, 3), F(2), F(5, 2)]))
@settings(max_examples=60)
def test_alpha_assignments_scale_with_alpha(g, solve, alpha, k):
    base = solve(g, alpha)
    scaled = solve(g, k * alpha)
    if base is None:
        assert scaled is None
        return
    assert scaled.values == tuple(k * v for v in base.values)
