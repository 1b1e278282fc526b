"""Exact two-phase simplex on hand-checked covering programs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


def test_fractional_optimum_stays_exact():
    # triangle covering: min x1+x2+x3 with each pair summing to alpha
    alpha = F(3, 10)
    rows = [[F(1), F(1), F(0)], [F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    value, x = simplex_minimize([F(1)] * 3, rows, [alpha] * 3)
    assert value == F(9, 20)  # 3 * alpha / 2, not a float artifact
    assert all(v == F(3, 20) for v in x)


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
