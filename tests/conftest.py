"""Shared fixtures: the worked product examples and hypothesis strategies."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from fuzzydom import FuzzyGraph, direct_product
from fuzzydom.harness import VALID_GRIDS, GenParams, gen_random

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def k2_low() -> FuzzyGraph:
    # two vertices joined by an effective edge, uneven sigma
    return FuzzyGraph.build(
        "k2-low", [("g1", "0.15"), ("g2", "0.2")], [("g1", "g2", "0.15")])


@pytest.fixture
def k2_even() -> FuzzyGraph:
    return FuzzyGraph.build(
        "k2-even", [("h1", "0.2"), ("h2", "0.2")], [("h1", "h2", "0.2")])


@pytest.fixture
def p3_mixed() -> FuzzyGraph:
    # g1-g2 is present but not effective; only g2-g3 carries domination
    return FuzzyGraph.build(
        "p3-mixed",
        [("g1", "0.2"), ("g2", "0.15"), ("g3", "0.2")],
        [("g1", "g2", "0.1"), ("g2", "g3", "0.15")])


@pytest.fixture
def example_product(k2_low, k2_even) -> FuzzyGraph:
    return direct_product(k2_low, k2_even)


@pytest.fixture
def p3_product(p3_mixed, k2_even) -> FuzzyGraph:
    return direct_product(p3_mixed, k2_even)


# hostile files: bytes that are not UTF-8, and nesting deeper than the
# JSON decoder's recursion allows
HOSTILE_FILES = [
    (b"\xff\xfe{}", "not UTF-8 text: invalid start byte at byte 0"),
    (b"[" * 100_000, "document nests too deeply"),
]


def gen_params_strategy(max_vertices: int = 6) -> st.SearchStrategy[GenParams]:
    probs = st.sampled_from(
        [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)])
    return st.builds(
        GenParams,
        vertex_count=st.integers(min_value=1, max_value=max_vertices),
        edge_probability=probs,
        effective_probability=probs,
        sigma_grid=st.sampled_from(VALID_GRIDS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )


def graphs(max_vertices: int = 6) -> st.SearchStrategy[FuzzyGraph]:
    return gen_params_strategy(max_vertices).map(gen_random)
