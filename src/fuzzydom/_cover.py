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
such picks, and with every zero-weight vertex (see below).

Every uncovered requirement keeps an allowed coverer. At the root each
has one, or the search returns None before it starts. If the branch
requirement has k allowed coverers, the fewest of any, its j-th child bans
only j-1 of them, so every other uncovered requirement keeps at least
k - (j - 1) >= 1. So every node that is not a cover has a child, and a
node is only ever dropped by one of the cuts below.

Keys make the optimum unique. The contract returns, among all optimal
covers, the one whose sorted index tuple is lexicographically smallest.
The search instead minimises one integer key per cover, in which no two
covers tie. For w(u) > 0, key(u) = w(u)*2^n - 2^(n-1-u), so

    key(F) = 2^n * w(F) - sum over u in F of 2^(n-1-u).

The subtracted sum is below 2^n and differs for every set, so keys order
covers by weight first. Among covers of equal weight the larger sum comes
first, which is the lexicographically smaller tuple: at the lowest index
where two sets differ, the one holding it sorts first, unless the other
is a prefix of it, and with positive weights a prefix and its extension
never weigh the same. Every key is positive, and distinct.

Zero weights: every zero-weight vertex is a root pick with key 0, so
every vertex the search can pick has a positive key, and its optimum F'
holds every zero-weight vertex. Covers that hold them all differ only in
positive-weight vertices, so F' is unique by the argument above. The
contract's answer L is the shortest index-order prefix of F' that covers,
and it weighs what F' weighs. Let Z be the zero-weight vertices. L holds
every member of Z below max L (adding one keeps the weight and sorts
first), so L and L | Z agree up to max L. L | Z is an optimal cover that
holds Z, and among those F' has the largest sum, so at the lowest index
where F' and L | Z differ F' holds it; if that index were below max L, F'
would be an optimal cover sorting before L. So F' agrees with L up to
max L: L is a covering prefix of F', and a shorter covering prefix would
weigh no more than L and sort before it.

Incumbent and cuts: the search never runs without a cover in hand. After
the root's picks, Chvatal's greedy rule builds one: repeatedly add the
vertex of least key per newly covered requirement (compared by
cross-multiplying, so in integers), ties to the lowest index. Every
requirement has a coverer, so it ends at a cover, and its key and mask
are the first incumbent. Since the optimum is unique, only a strictly
smaller key can matter, and every cut is strict in key: a child is pushed
only if its key is below the incumbent's, a node is pruned when a lower
bound on what its completion adds reaches the gap to the incumbent, and a
leaf replaces the incumbent only if its key is smaller. A filtered
coverer is still banned for its later siblings, as if its child had been
pushed and then pruned.

Set-up: if the union of all masks is not every requirement, some
requirement has no coverer and the search returns None before it builds
anything. Otherwise it transposes the rows into coverer masks: col[v] has
bit u set iff u covers v. Each row's set bits are walked, or its clear
bits when more than half of them are set: those rows are first entered
as covering every requirement, and each clear bit then takes the row out
of that requirement's column. So the transpose costs the sum over rows
of min(set bits, clear bits). A requirement whose column has one bit
(c & (c - 1) == 0) has a single coverer, a root pick. Each pickable
vertex keeps its key, and its key times _SCALE for the shares below.

Lower bounds (admissible), for the uncovered requirement set U. Each
node counts, once, how many members of U every pickable vertex hits;
both bounds and `most` read that one list.

* pick count: no vertex covers more than `most` members of U, so every
  completion picks at least k = ceil(|U| / most) distinct allowed
  vertices, each of which hits U (a pick covers the branch requirement,
  which is uncovered). So the completion adds at least the k least keys
  among allowed vertices that hit U. This bound is exact in integers and
  is tried first. The search walks those keys least first. Say the first
  j of them reach the gap. The node is pruned iff k >= j, that is iff
  (j-1) * most < |U|, and only then is `most` needed. Before that, once
  (j-1) times the largest hit count among the j walked reaches |U|,
  k < j is already shown (most is at least that count), and the walk
  stops without pruning.
* shares: give each allowed vertex u that hits U the term
  t(u) = key(u) * _SCALE / |cover(u) & U|, rounded down, which never
  raises it. A completion S that avoids the banned vertices covers U, so
  _SCALE * key(S) >= sum over u in S that hit U of t(u) * |cover(u) & U|
  >= sum over v in U of min over allowed coverers u of t(u), since each
  v is covered by some u in S and every term is nonnegative. No cover in
  a subtree uses a vertex banned there, so leaving banned coverers out
  keeps the bound below every cover the subtree can reach. The search
  sums it with a least-share sweep: it walks the allowed vertices that
  hit U in order of t(u), and charges each requirement that a vertex
  newly covers that vertex's term. A requirement is charged once, by its
  first coverer in the walk, and no later coverer has a smaller term, so
  the sweep adds exactly the per-requirement minima above. No partial
  sum exceeds the total, so the node is pruned as soon as one reaches
  the scaled gap, and the branch requirement is looked for only on nodes
  that survive both bounds.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Optional, Sequence

_SCALE = 1 << 32


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
    union = reduce(or_, cover_masks, 0)
    if union >> n:
        raise ValueError("cover_masks reference vertices beyond range")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    full = (1 << n) - 1
    if union != full:
        return None

    # col[v]: the mask of the vertices covering requirement v; a row more
    # than half set is walked by its clear bits, then flipped in with dense
    col = [0] * n
    dense = 0
    half = n >> 1
    for u, m in enumerate(cover_masks):
        bit = 1 << u
        if m.bit_count() > half:
            dense |= bit
            m ^= full
        while m:
            low = m & -m
            col[low.bit_length() - 1] ^= bit
            m ^= low
    if dense:
        col = [c ^ dense for c in col]
    # root picks: every zero-weight vertex, and each requirement's only
    # coverer, which is in every cover
    forced = sum(1 << u for u in range(n) if weights[u] == 0)
    for c in col:
        if not c & (c - 1):
            forced |= c
    # key(u) = w(u) * 2^n - 2^(n-1-u) for w(u) > 0 (module docstring); a
    # zero-weight vertex is a root pick with key 0
    keys = [(w << n) - (1 << (n - 1 - u)) if w else 0
            for u, w in enumerate(weights)]
    root_key = 0
    root_covered = 0
    for u in range(n):
        if forced >> u & 1:
            root_key += keys[u]
            root_covered |= cover_masks[u]
    # the vertices a completion can pick, least key first (keys are
    # distinct): cover masks, bits, keys and keys times _SCALE
    order = sorted((u for u in range(n) if not forced >> u & 1),
                   key=keys.__getitem__)
    free_masks = [cover_masks[u] for u in order]
    free_bits = [1 << u for u in order]
    free_keys = [keys[u] for u in order]
    free_scaled = [keys[u] * _SCALE for u in order]

    # greedy incumbent: least key per newly covered requirement, ties to
    # the lowest index; every requirement has a coverer, so it ends
    best_key = root_key
    best_mask = forced
    covered = root_covered
    while covered != full:
        pick = -1
        pick_key = pick_gain = 0
        for u in range(n):
            gain = (cover_masks[u] & ~covered).bit_count()
            if gain and (pick < 0 or keys[u] * pick_gain < pick_key * gain):
                pick, pick_key, pick_gain = u, keys[u], gain
        best_key += pick_key
        best_mask |= 1 << pick
        covered |= cover_masks[pick]

    # stack of (chosen_mask, chosen_key, covered_mask, banned_mask)
    stack = [(forced, root_key, root_covered, 0)]
    while stack:
        chosen, key, covered, banned = stack.pop()
        uncovered = full ^ covered
        if uncovered == 0:
            if key < best_key:
                best_key = key
                best_mask = chosen
            continue
        hits = [(c & uncovered).bit_count() for c in free_masks]
        # pick-count bound: walk the allowed vertices that hit what is
        # left, least key first; most is read only once their keys reach
        # the gap
        size = uncovered.bit_count()
        gap = best_key - key
        floor = picks = seen = 0
        prune = False
        for h, bit, u_key in zip(hits, free_bits, free_keys):
            if not h or banned & bit:
                continue
            floor += u_key
            picks += 1
            if h > seen:
                seen = h
            if (picks - 1) * seen >= size:
                break  # k < picks, so the k least keys fall short of the gap
            if floor >= gap:
                prune = (picks - 1) * max(hits) < size  # k >= picks
                break
        if prune:
            continue
        # share bound: charge each requirement the least share of its
        # allowed coverers, least share first, until the gap is reached
        # or nothing is left
        slack = gap * _SCALE
        shares = sorted([(scaled // h, c) for h, c, bit, scaled
                         in zip(hits, free_masks, free_bits, free_scaled)
                         if h and not banned & bit])
        bound = 0
        left = uncovered
        for term, c in shares:
            new = c & left
            if new:
                bound += term * new.bit_count()
                if bound >= slack:
                    break
                left ^= new
                if not left:
                    break
        if bound >= slack:
            continue
        # branch on the requirement with the fewest allowed coverers, ties
        # to the lowest index; every one has at least one (docstring)
        allowed = full ^ banned
        fewest = n + 1
        branch = 0
        m = uncovered
        while m:
            low = m & -m
            m ^= low
            count = (col[low.bit_length() - 1] & allowed).bit_count()
            if count < fewest:
                fewest = count
                branch = low.bit_length() - 1
                if count < 2:
                    break
        children = []
        m = col[branch] & allowed
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            if key + keys[u] < best_key:
                children.append((chosen | low, key + keys[u],
                                 covered | cover_masks[u], banned))
            banned |= low
        # reversed so the lowest-index coverer is explored first (LIFO)
        stack.extend(reversed(children))

    # the answer is the shortest index-order prefix of the keyed optimum
    # that covers (module docstring)
    weight = 0
    mask = 0
    covered = 0
    while covered != full:
        low = best_mask & -best_mask
        best_mask ^= low
        u = low.bit_length() - 1
        weight += weights[u]
        mask |= low
        covered |= cover_masks[u]
    return weight, mask
