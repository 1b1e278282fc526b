"""Bounded-exhaustive claim sweep: every small factor pair, not a sample.

The scope is every fuzzy graph on 1-3 vertices with sigma in {1/2, 1},
where each vertex pair is absent, effective (mu = min sigma) or present at
mu = min sigma / 2, taken up to isomorphism. That is 67 graphs and 4,489
ordered pairs. Inside it a forced claim has no violation, and every claim's
(applicable, violated) counts are pinned.

Representative rule: graphs are enumerated by vertex count, then by the
sigma tuple, then by the edge states of the pairs (1,2), (1,3), (2,3), each
in the orders (1/2, 1) and (absent, effective, half); the first graph of
each isomorphism class in that order represents it, with vertex ids v1..vn
in position order. T11 reads the product's lex-smallest minimum total
dominating set, so its verdict can change with the vertex order of the
representative; its count holds under this rule only.

The counts were taken from the claim checkers as they stood when this
module was added; a change to a checker that moves one is a change of
verdict, not of speed.
"""

import json
from fractions import Fraction
from itertools import permutations, product

import pytest

from fuzzydom.core import FuzzyGraph
from fuzzydom.fileformat import document_of
from fuzzydom.harness import (FORCED_IDS, HYPOTHESIS_IDS, REGISTRY,
                              THEOREM_IDS, _PairContext, replay_counterexample)

HALF = Fraction(1, 2)
SIGMAS = (HALF, Fraction(1))
ABSENT, EFFECTIVE, WEAK = 0, 1, 2

# (applicable, violated) per claim over the 4,489 ordered pairs
COUNTS = {
    "T1": (4489, 0), "T2a": (361, 0), "T2b": (543, 182), "T3": (361, 0),
    "T4a": (4489, 0), "T4b": (4489, 192), "T5": (13, 0), "T6": (81, 0),
    "T7": (89, 0), "T8": (4489, 0), "T9": (361, 6), "T10": (2116, 214),
    "T11": (543, 95), "T12": (543, 0),
}


def _canonical(sigma, states):
    n = len(sigma)
    return min(
        (tuple(sigma[p[i]] for i in range(n)),
         tuple(states[frozenset((p[i], p[j]))]
               for i in range(n) for j in range(i + 1, n)))
        for p in permutations(range(n)))


def scope_graphs():
    """The first graph of every isomorphism class, in enumeration order."""
    seen = set()
    graphs = []
    for n in (1, 2, 3):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for sigma in product(SIGMAS, repeat=n):
            for choice in product((ABSENT, EFFECTIVE, WEAK), repeat=len(pairs)):
                states = {frozenset(p): s for p, s in zip(pairs, choice)}
                key = _canonical(sigma, states)
                if key in seen:
                    continue
                seen.add(key)
                ids = [f"v{i + 1}" for i in range(n)]
                edges = []
                for (i, j), state in zip(pairs, choice):
                    low = min(sigma[i], sigma[j])
                    if state != ABSENT:
                        edges.append((ids[i], ids[j],
                                      low if state == EFFECTIVE else low / 2))
                graphs.append(FuzzyGraph.build(
                    f"s{len(graphs)}", list(zip(ids, sigma)), edges))
    return graphs


@pytest.fixture(scope="module")
def sweep():
    """Counts and the first violation of each claim over every ordered pair."""
    graphs = scope_graphs()
    counts = {tid: [0, 0] for tid in THEOREM_IDS}
    first = {}
    for g in graphs:
        for h in graphs:
            ctx = _PairContext(g, h)
            for tid in THEOREM_IDS:
                result = REGISTRY[tid].check(ctx)
                if result.status != "not-applicable":
                    counts[tid][0] += 1
                if result.status == "violated":
                    counts[tid][1] += 1
                    first.setdefault(tid, (g, h, result.witness))
    return len(graphs), {t: tuple(c) for t, c in counts.items()}, first


def test_scope_is_67_graphs(sweep):
    assert sweep[0] == 67


def test_no_forced_claim_is_violated(sweep):
    _, counts, _ = sweep
    assert {tid: counts[tid][1] for tid in FORCED_IDS} == dict.fromkeys(FORCED_IDS, 0)


def test_every_claim_keeps_its_counts(sweep):
    assert sweep[1] == COUNTS


def test_one_violation_per_hypothesis_claim_replays(sweep):
    _, _, first = sweep
    violated = [tid for tid in HYPOTHESIS_IDS if COUNTS[tid][1]]
    assert sorted(first) == sorted(violated)
    for tid in violated:
        g, h, witness = first[tid]
        record = json.loads(json.dumps(
            {"g": document_of(g), "h": document_of(h), "witness": witness}))
        replayed = replay_counterexample(tid, record)
        assert (replayed.status, replayed.witness) == ("violated", witness)
