"""Output checks, made apart from the code they check.

The checks recompute effective neighbourhoods from a graph's own vertex and
edge lists (an edge counts when mu equals the smaller sigma of its ends),
without fuzzydom.core. The claim-report checks replay counterexamples
through the public checkers and compare every stated nu or nu_t with the
brute-force oracle, and every stated gamma value with the brute-force LP
oracle on covering rows built here; neither oracle shares code with the
solvers.

Every function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Sequence

FORCED_CLAIMS = ("T1", "T2a", "T3", "T6", "T7", "T12")
EVERY_PAIR_CLAIMS = ("T1", "T8")


def effective_neighbours(vertices: Sequence[str], sigma: Sequence[Fraction],
                         edges: Iterable[tuple[str, str, Fraction]]
                         ) -> dict[str, set[str]]:
    level = dict(zip(vertices, sigma))
    nbrs: dict[str, set[str]] = {v: set() for v in vertices}
    for u, v, mu in edges:
        if u != v and mu == min(level[u], level[v]):
            nbrs[u].add(v)
            nbrs[v].add(u)
    return nbrs


def read_graph_file(path: str) -> tuple[dict[str, Fraction], dict[str, set[str]]]:
    """sigma by vertex and effective neighbours, straight from a graph file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    vertices = [entry["id"] for entry in doc["vertices"]]
    sigma = [Fraction(entry["sigma"]) for entry in doc["vertices"]]
    edges = [(e["u"], e["v"], Fraction(e["mu"])) for e in doc["edges"]]
    return dict(zip(vertices, sigma)), effective_neighbours(vertices, sigma, edges)


def _dominates(nbrs: dict[str, set[str]], chosen: set[str], total: bool) -> bool:
    if total:
        return all(nbrs[v] & chosen for v in nbrs)
    return all(v in chosen or nbrs[v] & chosen for v in nbrs)


def domination_problems(path: str, dominating, total) -> list[str]:
    """Check nu and nu_t results for the graph stored at path.

    Witnesses must (totally) dominate, weigh exactly the reported optimum,
    and lose domination when any one member is dropped; every sigma is
    positive, so an optimal witness has no removable member. nu <= nu_t, and
    nu_t is nonexistent exactly when a vertex has no effective neighbour.
    """
    sigma, nbrs = read_graph_file(path)
    if any(s <= 0 for s in sigma.values()):
        return [f"{path}: a vertex has sigma 0, minimality cannot be checked"]
    problems = []
    isolated = any(not n for n in nbrs.values())
    if (total.status == "nonexistent") != isolated:
        problems.append(f"{path}: nu_t status {total.status!r} but "
                        f"isolated vertex present = {isolated}")
    if dominating.status != "found":
        problems.append(f"{path}: no dominating set reported")
    for result, is_total in ((dominating, False), (total, True)):
        if result.status != "found":
            continue
        chosen = set(result.witness)
        label = "nu_t" if is_total else "nu"
        if len(chosen) != len(result.witness) or not chosen <= set(sigma):
            problems.append(f"{path}: {label} witness is not a vertex set")
            continue
        if not _dominates(nbrs, chosen, is_total):
            problems.append(f"{path}: {label} witness does not dominate")
        if sum((sigma[v] for v in chosen), Fraction(0)) != result.optimum:
            problems.append(f"{path}: {label} witness weight differs from optimum")
        if any(_dominates(nbrs, chosen - {v}, is_total) for v in chosen):
            problems.append(f"{path}: {label} witness has a removable member")
    if (dominating.status == total.status == "found"
            and dominating.optimum > total.optimum):
        problems.append(f"{path}: nu > nu_t")
    return problems


def report_problems(report: list[dict], pairs: int, fz, oracle_memo: dict) -> list[str]:
    """Check one `fuzzydom check` report over `pairs` pairs.

    fz is the fuzzydom package; oracle_memo caches brute-force optima by
    graph document, since shrunk counterexamples repeat across reports.
    """
    problems = []
    by_id = {entry["theorem_id"]: entry for entry in report}
    if sorted(by_id) != sorted(fz.THEOREM_IDS):
        problems.append("report does not cover every claim")
    for tid in FORCED_CLAIMS:
        if by_id.get(tid, {}).get("status") == "counterexample-found":
            problems.append(f"forced claim {tid} reported a counterexample")
    for tid in EVERY_PAIR_CLAIMS:
        if by_id.get(tid, {}).get("instances_checked") != pairs:
            problems.append(f"{tid} checked {by_id.get(tid, {}).get('instances_checked')} "
                            f"of {pairs} pairs")
    problems.extend(fz.replay_report(report))
    for entry in report:
        for record in entry["counterexamples"]:
            problems.extend(_witness_optima_problems(
                entry["theorem_id"], record, fz, oracle_memo))
    return problems


# witness key -> (graph the value is about, kind of domination)
_STATED_OPTIMA = {
    "nu_product": ("product", "dominating"),
    "nu_t_product": ("product", "total"),
    "nu_t_left": ("g", "total"),
    "nu_t_right": ("h", "total"),
}

# witness key -> (factor, neighbourhood); the value is the LP optimum at 2 alpha
_STATED_LP_OPTIMA = {
    "gamma_t_2alpha_left": ("g", "open"),
    "gamma_t_2alpha_right": ("h", "open"),
    "gamma_2alpha_left": ("g", "closed"),
    "gamma_2alpha_right": ("h", "closed"),
}


def _lp_optimum(graph, alpha: Fraction, mode: str, fz):
    """Brute-force optimum of the alpha-covering LP, rows from the edge list."""
    nbrs = effective_neighbours(graph.vertices, graph.sigma, graph.edges)
    index = {v: k for k, v in enumerate(graph.vertices)}
    reach = {v: nbrs[v] | {v} if mode == "closed" else nbrs[v] for v in graph.vertices}
    rows = tuple(tuple(sorted(index[u] for u in reach[v])) for v in graph.vertices)
    return fz.brute_force_lp_min(fz.LpInstance(vertex_ids=tuple(graph.vertices),
                                               rows=rows, alpha=alpha, mode=mode))


def _witness_optima_problems(tid: str, record: dict, fz, memo: dict) -> list[str]:
    problems = []
    pair_key = json.dumps([record["g"], record["h"]], sort_keys=True)

    def pair() -> dict:
        if pair_key not in memo:
            g = fz.graph_of_document(record["g"])
            h = fz.graph_of_document(record["h"])
            memo[pair_key] = {"g": g, "h": h, "product": fz.direct_product(g, h)}
        return memo[pair_key]

    stated_keys = [key for key in (*_STATED_OPTIMA, *_STATED_LP_OPTIMA)
                   if key in record["witness"]]
    for key in stated_keys:
        if key in _STATED_OPTIMA:
            which, kind = _STATED_OPTIMA[key]
            memo_key = (pair_key, which, kind)
            if memo_key not in memo:
                result = fz.brute_force_min(pair()[which], kind)
                memo[memo_key] = result.optimum if result.found else None
        else:
            which, mode = _STATED_LP_OPTIMA[key]
            alpha = 2 * Fraction(record["witness"]["alpha"])
            memo_key = (pair_key, which, mode, alpha)
            if memo_key not in memo:
                memo[memo_key] = _lp_optimum(pair()[which], alpha, mode, fz)
        stated = record["witness"][key]
        expected = memo[memo_key]
        if (stated == "nonexistent") != (expected is None) or (
                expected is not None and Fraction(stated) != expected):
            problems.append(f"{tid}: witness states {key} = {stated}, "
                            f"oracle gives {expected}")
    return problems
