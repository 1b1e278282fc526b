"""Exact min-weight set-cover kernel.

This is the hot search behind the domination solvers. Vertices are bit
positions, and so are the requirements: every one of the n bits must be
covered, and cover_masks[u] is the set of them that picking u satisfies;
weights are nonnegative scaled integers. The search is a
branch-and-bound with an explicit stack, so it is reentrant and never hits
recursion limits. The independent brute-force oracle in domination.py
intentionally shares none of this code.

Branching (the rule of Knuth's Algorithm X, "Dancing Links"): a node holds
the picks so far and a set of banned vertices. It branches on the
uncovered requirement with the fewest allowed (not banned) coverers, ties
to the lowest index. The child for its k-th allowed coverer, in index
order, picks that coverer and bans coverers 1..k-1 in its subtree, so each
cover is enumerated once, not once per order of its picks. A requirement
with a single coverer puts it in every cover, so the root starts with all
such picks.

Every uncovered requirement keeps an allowed coverer. At the root each
has one, or the search returns None before it starts. If the branch
requirement has k allowed coverers, the fewest of any, its j-th child bans
only j-1 of them, so every other uncovered requirement keeps at least
k - (j - 1) >= 1. So every node that is not a cover has a child, and a
node is only ever dropped by one of the two cuts below.

Incumbent and cuts: the search never runs without a cover in hand. After
the root's picks, Chvatal's greedy rule builds one: repeatedly add the
vertex of least weight per newly covered requirement (compared by
cross-multiplying, so in integers), ties to the lowest index. Every
requirement has a coverer, so it ends at a cover, and its weight and plain
mask are the first incumbent. From there two cuts apply from the first
node: a node is pruned when its lower bound exceeds the incumbent, and a
child is pushed only if its weight does not exceed the incumbent. A
filtered coverer is still banned for its later siblings, as if its child
had been pushed and then pruned.

Tie-break contract: among all optimal covers, return the one whose sorted
index tuple is lexicographically smallest. Three facts keep that exact:

* the lexicographically smallest optimal cover L is never banned away:
  the root's picks are in L, and from there follow L, taking at each node
  L's lowest-index allowed coverer of the branch requirement (one exists,
  since L covers it and nothing in L is banned). That child bans only
  coverers below it, none of which is in L. The path ends at a cover C
  inside L;
* neither cut can remove a node of that path, because both are strict and
  every incumbent is a real cover, so it weighs at least the optimum. Each
  node on the path weighs at most w(C), which is the optimum (C is inside
  L and is a cover), so the push-time filter keeps it; and its bound is at
  most what C still costs below it, so the prune keeps it too. So
  equal-weight alternatives are never cut off;
* a zero-weight vertex can sit in an optimal cover without covering
  anything new, and adding such a vertex below the cover's maximum index
  makes the tuple lexicographically smaller. The search only enumerates
  covers where every member covers something, so each candidate is
  augmented with every zero-weight vertex below its maximum index before
  comparison, which keeps its weight. L is the augmentation of the C
  above: L minus C weighs nothing, L has no member above C's maximum
  (dropping it would give a smaller prefix), and among covers with one
  maximum the superset sorts first. The greedy incumbent is kept
  unaugmented: if it ties the optimum, L sorts no later than it, so the
  comparison at C's leaf replaces it unless it already is L.

Lower bound (admissible): for the uncovered requirement set U, every
completion that avoids the banned vertices pays at least the sum over v in
U of the min over allowed coverers u of w(u)/|cover(u)&U|. No cover in a
subtree uses a vertex banned there, so leaving banned coverers out keeps
the bound below every cover the subtree can reach. Each term is scaled by
the fixed power of two _SCALE and rounded down, which never raises it, so
the strict prune stays admissible.
"""

from __future__ import annotations

from typing import Optional, Sequence

_SCALE = 1 << 32


def lex_tuple_less(a: int, b: int) -> bool:
    """Compare bitmasks as sorted ascending index tuples, lexicographically.

    A strict prefix is smaller than its extension, so this is NOT plain
    integer comparison of the masks.
    """
    while True:
        if a == b:
            return False
        if a == 0:
            return True
        if b == 0:
            return False
        la = a & -a
        lb = b & -b
        if la != lb:
            return la < lb
        a ^= la
        b ^= lb


def solve_min_cover(
    cover_masks: Sequence[int],
    weights: Sequence[int],
) -> Optional[tuple[int, int]]:
    """Minimize total weight of S with union(cover_masks[u] for u in S) all n bits.

    Returns (weight, chosen_mask) with the tie-break documented above, or
    None when some bit has no coverer.
    """
    n = len(cover_masks)
    if len(weights) != n:
        raise ValueError("cover_masks and weights must have equal length")
    if any(m >> n for m in cover_masks):
        raise ValueError("cover_masks reference vertices beyond range")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")

    full = (1 << n) - 1
    # coverers[v]: the vertices covering requirement v, ascending
    coverers: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        m = cover_masks[u]
        while m:
            low = m & -m
            coverers[low.bit_length() - 1].append(u)
            m ^= low
    # a requirement's only coverer is in every cover: pick it at the root
    forced = 0
    for v in range(n):
        if len(coverers[v]) == 1:
            forced |= 1 << coverers[v][0]
        elif not coverers[v]:
            return None
    root_weight = 0
    root_covered = 0
    for u in range(n):
        if forced >> u & 1:
            root_weight += weights[u]
            root_covered |= cover_masks[u]
    # share[u][hits]: w(u) * _SCALE / hits, rounded down
    share = [[0, *map((w * _SCALE).__floordiv__, range(1, c.bit_count() + 1))]
             for w, c in zip(weights, cover_masks)]
    zero_mask = sum(1 << u for u in range(n) if weights[u] == 0)

    # greedy incumbent: least weight per newly covered requirement, ties
    # to the lowest index; every requirement has a coverer, so it ends
    best_weight = root_weight
    best_mask = forced
    covered = root_covered
    while covered != full:
        pick = -1
        pick_weight = pick_gain = 0
        for u in range(n):
            gain = (cover_masks[u] & ~covered).bit_count()
            if gain and (pick < 0 or weights[u] * pick_gain < pick_weight * gain):
                pick, pick_weight, pick_gain = u, weights[u], gain
        best_weight += pick_weight
        best_mask |= 1 << pick
        covered |= cover_masks[pick]

    # stack of (chosen_mask, chosen_weight, covered_mask, banned_mask)
    stack = [(forced, root_weight, root_covered, 0)]
    while stack:
        chosen, weight, covered, banned = stack.pop()
        uncovered = full & ~covered
        if uncovered == 0:
            candidate = chosen
            if chosen:
                candidate |= zero_mask & ((1 << (chosen.bit_length() - 1)) - 1)
            if weight < best_weight or (
                    weight == best_weight and lex_tuple_less(candidate, best_mask)):
                best_weight = weight
                best_mask = candidate
            continue
        # one pass builds the bound and finds the requirement with the
        # fewest allowed coverers; it breaks off (and the node is pruned)
        # once the bound passes the incumbent
        slack = (best_weight - weight) * _SCALE
        bound = 0
        fewest = n + 1
        branch_v = 0
        m = uncovered
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            count = 0
            cheapest = 0
            for u in coverers[v]:
                if banned >> u & 1:
                    continue
                term = share[u][(cover_masks[u] & uncovered).bit_count()]
                if count == 0 or term < cheapest:
                    cheapest = term
                count += 1
            if count < fewest:
                fewest = count
                branch_v = v
            bound += cheapest
            if bound > slack:
                break
        else:
            children = []
            for u in coverers[branch_v]:
                if banned >> u & 1:
                    continue
                # <=, not <: a child that can tie the incumbent may lead to
                # a lex-smaller optimum
                if weight + weights[u] <= best_weight:
                    children.append((chosen | 1 << u, weight + weights[u],
                                     covered | cover_masks[u], banned))
                banned |= 1 << u
            # reversed so the lowest-index coverer is explored first (LIFO)
            stack.extend(reversed(children))

    return best_weight, best_mask
