"""The set-cover kernel against an inline subset-enumeration oracle."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fuzzydom._cover import solve_min_cover


def test_infeasible_returns_none():
    assert solve_min_cover([0b01, 0b01], [1, 1]) is None


def test_trivial_empty_requirement():
    # no vertices, so nothing is required and the empty set covers it
    assert solve_min_cover([], []) == (0, 0)


def test_masks_must_stay_within_the_vertices():
    with pytest.raises(ValueError, match="beyond range"):
        solve_min_cover([0b10], [1])


def test_weights_must_be_nonnegative():
    # with w < 0 the optimum -3 takes all three, but the bound assumes w >= 0
    with pytest.raises(ValueError, match="nonnegative"):
        solve_min_cover([0b011, 0b110, 0b101], [-1, -1, -1])


@st.composite
def cover_instances(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    masks = [draw(st.integers(min_value=0, max_value=(1 << n) - 1))
             for _ in range(n)]
    # small weights with zeros make ties and zero-weight padding common
    weights = [draw(st.integers(min_value=0, max_value=4)) for _ in range(n)]
    return masks, weights


def subset_oracle(masks, weights):
    """Every subset in (size, lexicographic) order; keep the least (weight, tuple)."""
    required = (1 << len(masks)) - 1
    best = None
    for size in range(len(masks) + 1):
        for picks in combinations(range(len(masks)), size):
            reached = 0
            for u in picks:
                reached |= masks[u]
            if reached & required != required:
                continue
            key = (sum(weights[u] for u in picks), picks)
            if best is None or key < best:
                best = key
    return best


def test_search_improves_on_a_heavier_greedy_cover():
    # greedy takes 0 (1 per 2 new), then 1 (ties 3 at 1 per new, lower
    # index), then 2 for requirement 3: {0, 1, 2} weighs 4; {0, 3} weighs 3
    masks, weights = [0b0101, 0b0110, 0b1101, 0b1011], [1, 1, 2, 2]
    assert subset_oracle(masks, weights) == (3, (0, 3))
    assert solve_min_cover(masks, weights) == (3, 0b1001)


def test_search_replaces_a_tying_greedy_cover_that_sorts_later():
    # greedy takes 1 (1 per 2 new), then 2: {1, 2} weighs the optimum 2,
    # but {0} weighs 2 as well and sorts first
    masks, weights = [0b111, 0b011, 0b100], [2, 1, 1]
    assert subset_oracle(masks, weights) == (2, (0,))
    assert solve_min_cover(masks, weights) == (2, 0b001)


def test_zero_weight_vertex_above_the_last_pick_is_dropped():
    # the search takes zero-weight vertex 1 too; {0} is a prefix of {0, 1}
    masks, weights = [0b11, 0b00], [1, 0]
    assert subset_oracle(masks, weights) == (1, (0,))
    assert solve_min_cover(masks, weights) == (1, 0b01)


def test_zero_weight_vertex_below_the_last_pick_is_kept():
    # {0, 1} weighs what {1} weighs and sorts first
    masks, weights = [0b00, 0b11], [0, 1]
    assert subset_oracle(masks, weights) == (1, (0, 1))
    assert solve_min_cover(masks, weights) == (1, 0b11)


@given(cover_instances())
@settings(max_examples=400)
def test_kernel_matches_subset_oracle(instance):
    masks, weights = instance
    expected = subset_oracle(masks, weights)
    got = solve_min_cover(masks, weights)
    if expected is None:
        assert got is None
        return
    weight, mask = got
    assert weight == expected[0]
    assert tuple(u for u in range(len(masks)) if mask >> u & 1) == expected[1]


@st.composite
def mixed_density_instances(draw):
    # n = 9-12, above the oracle test's range; rows more than half set
    # (the transpose walks their clear bits) mixed with sparse ones
    n = draw(st.integers(min_value=9, max_value=12))
    row = st.integers(min_value=0, max_value=(1 << n) - 1)
    masks = []
    for _ in range(n):
        a, b, c = draw(row), draw(row), draw(row)
        masks.append(a | b | c if draw(st.booleans()) else a & b)
    weights = [draw(st.integers(min_value=0, max_value=4)) for _ in range(n)]
    return masks, weights


@given(mixed_density_instances())
@settings(max_examples=100, deadline=None)
def test_kernel_matches_subset_oracle_on_dense_and_sparse_rows(instance):
    masks, weights = instance
    expected = subset_oracle(masks, weights)
    got = solve_min_cover(masks, weights)
    if expected is None:
        assert got is None
        return
    weight, mask = got
    assert weight == expected[0]
    assert tuple(u for u in range(len(masks)) if mask >> u & 1) == expected[1]


def test_dense_rows_with_one_uncovered_requirement_return_none():
    # ten rows, each all but bit 7 set: requirement 7 has no coverer
    masks = [0b1101111111] * 10
    assert subset_oracle(masks, [1] * 10) is None
    assert solve_min_cover(masks, [1] * 10) is None
    # one coverer of requirement 7 makes it a root pick
    masks[3] = 0b0010000000
    assert subset_oracle(masks, [1] * 10) == (2, (0, 3))
    assert solve_min_cover(masks, [1] * 10) == (2, 0b1001)
