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
k - (j - 1) >= 1. So every node that is not a cover has a child, and since
nothing is pruned before the first incumbent, the first path the search
follows ends at a cover.

Tie-break contract: among all optimal covers, return the one whose sorted
index tuple is lexicographically smallest. Three facts keep that exact:

* pruning is strict (only when the bound provably exceeds the incumbent),
  so equal-weight alternatives are never cut off;
* the lexicographically smallest optimal cover L is never banned away:
  the root's picks are in L, and from there follow L, taking at each node
  L's lowest-index allowed coverer of the branch requirement (one exists,
  since L covers it and nothing in L is banned). That child bans only
  coverers below it, none of which is in L. The path ends at a cover C
  inside L;
* a zero-weight vertex can sit in an optimal cover without covering
  anything new, and adding such a vertex below the cover's maximum index
  makes the tuple lexicographically smaller. The search only enumerates
  covers where every member covers something, so each candidate is
  augmented with every zero-weight vertex below its maximum index before
  comparison, which keeps its weight. L is the augmentation of the C
  above: L minus C weighs nothing, L has no member above C's maximum
  (dropping it would give a smaller prefix), and among covers with one
  maximum the superset sorts first.

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

    best_weight: Optional[int] = None
    best_mask = 0

    # stack of (chosen_mask, chosen_weight, covered_mask, banned_mask)
    stack = [(forced, root_weight, root_covered, 0)]
    while stack:
        chosen, weight, covered, banned = stack.pop()
        uncovered = full & ~covered
        if uncovered == 0:
            candidate = chosen
            if chosen:
                candidate |= zero_mask & ((1 << (chosen.bit_length() - 1)) - 1)
            if best_weight is None or weight < best_weight or (
                    weight == best_weight and lex_tuple_less(candidate, best_mask)):
                best_weight = weight
                best_mask = candidate
            continue
        # one pass builds the bound and finds the requirement with the
        # fewest allowed coverers; it breaks off (and the node is pruned)
        # once the bound passes the incumbent
        slack = None if best_weight is None else (best_weight - weight) * _SCALE
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
            if slack is not None and bound > slack:
                break
        else:
            children = []
            for u in coverers[branch_v]:
                if banned >> u & 1:
                    continue
                children.append((chosen | 1 << u, weight + weights[u],
                                 covered | cover_masks[u], banned))
                banned |= 1 << u
            # reversed so the lowest-index coverer is explored first (LIFO)
            stack.extend(reversed(children))

    return best_weight, best_mask
