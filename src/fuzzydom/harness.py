"""Seeded random corpora and one checker per product-domination claim.

Fourteen checkers (T1 through T12, with the two-direction claims split
into a/b) each take a factor pair, decide whether the claim's hypotheses
apply, and return holds / violated / not-applicable. Violations carry a
JSON-ready witness with every number needed to replay the verdict. A
checker asks a solver only for a value it reports or compares: whether a
total dominating set or an effective product edge exists is read from
effective adjacency (has_total_dominating, effective_degree_counts).

The checkers fall into two classes:

* FORCED claims (T1, T2a, T3, T6, T7, T12): their constructions are sound
  under the implemented definitions, so a violation can only mean a bug in
  this package. The corpus runner records such a violation like any
  other, and fuzzydom check exits 1 when a forced claim has one.
* hypothesis claims (T2b, T4a, T4b, T5, T8, T9, T10, T11): converses and
  proof constructions whose stated arguments leave gaps. Counterexamples
  are expected, reported, shrunk to small instances, and must replay
  deterministically from their serialized form.

alpha for the alpha-level claims defaults to the minimum sigma across both
factors, the largest level their "sigma >= alpha" hypothesis admits; a
caller may override it with an int or a Fraction above 0, which checking,
shrinking, and replay all use (each witness records the alpha it used).

Determinism contract: a GenParams value fully determines its graph, and a
corpus configuration fully determines every report byte except wall_time_ms.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Literal, Optional, Sequence

from . import fileformat
from .alpha import (
    AlphaFunction,
    _level,
    gamma_alpha,
    gamma_t_alpha,
    proof_function_total,
    verify_alpha_function,
)
from .core import (
    FuzzyGraph,
    effective_degree_counts,
    effective_edges,
    fuzzy_cardinality,
    fuzzy_order,
    is_complete,
    is_crisp_connected,
    is_effective,
)
from .domination import (
    DominationResult,
    has_total_dominating,
    is_dominating,
    is_total_dominating,
    min_dominating,
    min_total_dominating,
)
from .product import (
    direct_product,
    fiber_left,
    fiber_right,
    is_complete_product,
    missing_product_edge,
)
from .weights import format_weight

# grid denominators whose squares divide 10**6, so every generated mu
# still has an exact six-digit decimal form (non-effective edges multiply
# two grid fractions together)
VALID_GRIDS = (1, 2, 4, 5, 8, 10, 20, 25, 40, 50, 100)

PRODUCT_VERTEX_CAP = 16
MAX_STORED_COUNTEREXAMPLES = 10

Status = Literal["holds", "violated", "not-applicable"]


@dataclass(frozen=True)
class GenParams:
    """Recipe for one reproducible random fuzzy graph."""

    vertex_count: int
    edge_probability: Fraction
    effective_probability: Fraction
    sigma_grid: int
    seed: int

    def __post_init__(self) -> None:
        for label in ("vertex_count", "sigma_grid", "seed"):
            if type(getattr(self, label)) is not int:  # a bool is refused too
                raise TypeError(f"{label} must be an int, got "
                                f"{type(getattr(self, label)).__name__}")
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be at least 1")
        for label in ("edge_probability", "effective_probability"):
            p = getattr(self, label)
            if type(p) not in (int, Fraction):
                raise TypeError(f"{label} must be an int or a Fraction, "
                                f"got {type(p).__name__}")
            if not 0 <= p <= 1:
                raise ValueError(f"{label} must lie in [0, 1]")
            if type(p) is int:
                object.__setattr__(self, label, Fraction(p))
        if self.sigma_grid not in VALID_GRIDS:
            raise ValueError(
                f"sigma_grid must be one of {VALID_GRIDS} so generated "
                "weights keep exact decimal forms")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")


def _bernoulli(rng: random.Random, p: Fraction) -> bool:
    return rng.randrange(p.denominator) < p.numerator


def gen_random(params: GenParams) -> FuzzyGraph:
    """Deterministic graph from params: same params, same graph, byte for byte.

    Draw order (fixed forever, tests pin it): one sigma per vertex, then per
    vertex pair (i < j, row-major) a presence draw, then for present edges
    an effectiveness draw, then for non-effective edges a strictness factor
    r in {1/d..(d-1)/d} giving mu = r * min(sigma). A grid of 1 leaves no
    room below min(sigma), so every present edge is effective and the
    effectiveness draw is skipped entirely.
    """
    rng = random.Random(params.seed)
    n = params.vertex_count
    d = params.sigma_grid
    ids = [f"v{i + 1}" for i in range(n)]
    sigmas = [Fraction(rng.randint(1, d), d) for _ in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if not _bernoulli(rng, params.edge_probability):
                continue
            low = min(sigmas[i], sigmas[j])
            if d == 1 or _bernoulli(rng, params.effective_probability):
                mu = low
            else:
                mu = Fraction(rng.randint(1, d - 1), d) * low
            edges.append((ids[i], ids[j], mu))
    return FuzzyGraph.build(name=f"rand-{params.seed}",
                            vertices=list(zip(ids, sigmas)), edges=edges)


@dataclass(frozen=True)
class CheckResult:
    status: Status
    witness: Optional[dict] = None


class _PairContext:
    """Lazy shared computations for one (g, h) pair.

    Checkers pull product graphs, solver results, and LP optima from here
    so a corpus run computes each at most once per pair. alpha is the
    alpha claims' level, None when no positive level applies.
    """

    def __init__(self, g: FuzzyGraph, h: FuzzyGraph,
                 alpha_override: Optional[Fraction] = None):
        self.g = g
        self.h = h
        if alpha_override is not None:
            self.alpha: Optional[Fraction] = _level(alpha_override)
        else:
            low = min(g.sigma + h.sigma, default=0)
            self.alpha = low if low > 0 else None

    @cached_property
    def product(self) -> FuzzyGraph:
        return direct_product(self.g, self.h)

    @cached_property
    def order(self) -> Fraction:
        return fuzzy_order(self.product)

    @cached_property
    def tot_product(self) -> DominationResult:
        return min_total_dominating(self.product)

    @cached_property
    def dom_product(self) -> DominationResult:
        return min_dominating(self.product)

    @cached_property
    def alpha_hypotheses(self) -> bool:
        """T9-T11's hypotheses: nontrivial connected factors, sigma >= alpha."""
        a = self.alpha
        return (a is not None and len(self.g.vertices) >= 2
                and len(self.h.vertices) >= 2
                and all(s >= a for s in self.g.sigma + self.h.sigma)
                and is_crisp_connected(self.g) and is_crisp_connected(self.h))

    @cached_property
    def proof_function(self) -> AlphaFunction:
        assert self.tot_product.found and self.alpha is not None
        return proof_function_total(self.product, self.tot_product.witness,
                                    self.alpha)


def _check_t1(ctx: _PairContext) -> CheckResult:
    product = ctx.product
    sep = product.product_tag.separator
    for ga, gb, _ in effective_edges(ctx.g):
        for ha, hb, _ in effective_edges(ctx.h):
            for (x1, y1), (x2, y2) in (((ga, ha), (gb, hb)),
                                       ((ga, hb), (gb, ha))):
                u = f"{x1}{sep}{y1}"
                v = f"{x2}{sep}{y2}"
                if not is_effective(product, u, v):
                    return CheckResult("violated", {
                        "left_pair": [ga, gb],
                        "right_pair": [ha, hb],
                        "product_pair": [u, v],
                    })
    return CheckResult("holds")


def _check_t2a(ctx: _PairContext) -> CheckResult:
    if not (has_total_dominating(ctx.g) and has_total_dominating(ctx.h)):
        return CheckResult("not-applicable")
    if has_total_dominating(ctx.product):
        return CheckResult("holds")
    degrees = effective_degree_counts(ctx.product)
    isolated = next(v for v, deg in zip(ctx.product.vertices, degrees)
                    if deg == 0)
    return CheckResult("violated", {
        "left_has_total": True,
        "right_has_total": True,
        "product_has_total": False,
        "undominated_product_vertex": isolated,
    })


def _check_t2b(ctx: _PairContext) -> CheckResult:
    if not has_total_dominating(ctx.product):
        return CheckResult("not-applicable")
    left_ok = has_total_dominating(ctx.g)
    right_ok = has_total_dominating(ctx.h)
    if left_ok and right_ok:
        return CheckResult("holds")
    return CheckResult("violated", {
        "product_has_total": True,
        "left_has_total": left_ok,
        "right_has_total": right_ok,
    })


def _check_t3(ctx: _PairContext) -> CheckResult:
    if not (has_total_dominating(ctx.g) and has_total_dominating(ctx.h)):
        return CheckResult("not-applicable")
    left = min_total_dominating(ctx.g)
    right = min_total_dominating(ctx.h)
    d1 = left.witness
    d2 = right.witness
    sep = ctx.product.product_tag.separator
    cross = [f"{a}{sep}{b}" for a in d1 for b in d2]
    cross_ok = is_total_dominating(ctx.product, cross)
    bound = min(len(d2) * left.optimum, len(d1) * right.optimum)
    product_ok = ctx.tot_product.found and ctx.tot_product.optimum <= bound
    if cross_ok and product_ok:
        return CheckResult("holds")
    return CheckResult("violated", {
        "nu_t_left": format_weight(left.optimum),
        "nu_t_right": format_weight(right.optimum),
        "left_witness_size": len(d1),
        "right_witness_size": len(d2),
        "bound": format_weight(bound),
        "nu_t_product": (format_weight(ctx.tot_product.optimum)
                         if ctx.tot_product.found else "nonexistent"),
        "cross_set_total_dominating": cross_ok,
    })


def _unique_neighbor_claim(ctx: _PairContext, graph: FuzzyGraph,
                           side: str) -> CheckResult:
    value_matches = (ctx.tot_product.found
                     and ctx.tot_product.optimum == ctx.order)
    degrees = effective_degree_counts(graph)
    offending = next((v for v, deg in zip(graph.vertices, degrees) if deg != 1),
                     None)
    unique_everywhere = offending is None
    if value_matches == unique_everywhere:
        return CheckResult("holds")
    return CheckResult("violated", {
        "nu_t_product": (format_weight(ctx.tot_product.optimum)
                         if ctx.tot_product.found else "nonexistent"),
        "order": format_weight(ctx.order),
        "value_matches_order": value_matches,
        "degree_side": side,
        "all_degrees_one": unique_everywhere,
        "offending_vertex": offending,
    })


def _check_t4a(ctx: _PairContext) -> CheckResult:
    return _unique_neighbor_claim(ctx, ctx.product, "product")


def _check_t4b(ctx: _PairContext) -> CheckResult:
    return _unique_neighbor_claim(ctx, ctx.g, "left")


def _check_t5(ctx: _PairContext) -> CheckResult:
    if not (ctx.tot_product.found and ctx.tot_product.optimum == ctx.order):
        return CheckResult("not-applicable")
    count = len(ctx.product.vertices)
    if count % 2 == 0:
        return CheckResult("holds")
    return CheckResult("violated", {
        "nu_t_product": format_weight(ctx.tot_product.optimum),
        "order": format_weight(ctx.order),
        "vertex_count": count,
    })


def _check_t6(ctx: _PairContext) -> CheckResult:
    if not (is_complete(ctx.g) and is_complete(ctx.h)):
        return CheckResult("not-applicable")
    missing = missing_product_edge(ctx.product)
    if missing is None:
        return CheckResult("holds")
    return CheckResult("violated", {
        "left_complete": True,
        "right_complete": True,
        "product_complete": False,
        "offending_pair": list(missing),
    })


def _check_t7(ctx: _PairContext) -> CheckResult:
    if (len(ctx.g.vertices) < 2 or len(ctx.h.vertices) < 2
            or not is_complete_product(ctx.product)):
        return CheckResult("not-applicable")
    for side, factor_ids, fiber_fn in (("left", ctx.g.vertices, fiber_left),
                                       ("right", ctx.h.vertices, fiber_right)):
        for fid in factor_ids:
            fiber = fiber_fn(ctx.product, fid)
            if not is_dominating(ctx.product, fiber):
                return CheckResult("violated", {
                    "fiber_side": side,
                    "fiber_of": fid,
                    "fiber": list(fiber),
                    "is_dominating": False,
                })
    return CheckResult("holds")


def _check_t8(ctx: _PairContext) -> CheckResult:
    value_matches = ctx.dom_product.optimum == ctx.order
    no_effective = not any(effective_degree_counts(ctx.product))
    if value_matches == no_effective:
        return CheckResult("holds")
    return CheckResult("violated", {
        "nu_product": format_weight(ctx.dom_product.optimum),
        "order": format_weight(ctx.order),
        "value_matches_order": value_matches,
        "product_has_effective_edge": not no_effective,
    })


def _alpha_bound_claim(ctx: _PairContext, nu: Fraction,
                       solve: Callable[[FuzzyGraph, Fraction], AlphaFunction],
                       nu_key: str, gamma_key: str) -> CheckResult:
    """nu >= max(gamma^2a(G), gamma^2a(H)), each side solved by solve."""
    alpha = ctx.alpha
    left = solve(ctx.g, 2 * alpha).weight
    right = solve(ctx.h, 2 * alpha).weight
    if nu >= max(left, right):
        return CheckResult("holds")
    return CheckResult("violated", {
        "alpha": format_weight(alpha),
        nu_key: format_weight(nu),
        f"{gamma_key}_left": format_weight(left),
        f"{gamma_key}_right": format_weight(right),
    })


def _check_t9(ctx: _PairContext) -> CheckResult:
    # a total dominating set of each factor makes its open program feasible
    if not (ctx.alpha_hypotheses and has_total_dominating(ctx.g)
            and has_total_dominating(ctx.h) and ctx.tot_product.found):
        return CheckResult("not-applicable")
    return _alpha_bound_claim(ctx, ctx.tot_product.optimum, gamma_t_alpha,
                              "nu_t_product", "gamma_t_2alpha")


def _check_t10(ctx: _PairContext) -> CheckResult:
    if not ctx.alpha_hypotheses:
        return CheckResult("not-applicable")
    return _alpha_bound_claim(ctx, ctx.dom_product.optimum, gamma_alpha,
                              "nu_product", "gamma_2alpha")


def _check_t11(ctx: _PairContext) -> CheckResult:
    if not (ctx.alpha_hypotheses and ctx.tot_product.found):
        return CheckResult("not-applicable")
    f = ctx.proof_function
    violated_at = verify_alpha_function(ctx.g, f)
    if not violated_at:
        return CheckResult("holds")
    return CheckResult("violated", {
        "alpha": format_weight(ctx.alpha),
        "set": list(ctx.tot_product.witness),
        "function": {vid: format_weight(val)
                     for vid, val in zip(f.vertex_ids, f.values)},
        "violated_at": violated_at,
    })


def _check_t12(ctx: _PairContext) -> CheckResult:
    if ctx.alpha is None or not ctx.tot_product.found:
        return CheckResult("not-applicable")
    f = ctx.proof_function
    cardinality = fuzzy_cardinality(ctx.product, ctx.tot_product.witness)
    if f.weight <= cardinality:
        return CheckResult("holds")
    return CheckResult("violated", {
        "alpha": format_weight(ctx.alpha),
        "set": list(ctx.tot_product.witness),
        "set_cardinality": format_weight(cardinality),
        "function_weight": format_weight(f.weight),
    })


@dataclass(frozen=True)
class TheoremSpec:
    theorem_id: str
    quote_anchor: str
    forced: bool
    check: Callable[[_PairContext], CheckResult]


_SPECS = (
    TheoremSpec("T1", "effective factor pairs lift: g1~g2 and h1~h2 imply "
                      "g1h1~g2h2 in the product", True, _check_t1),
    TheoremSpec("T2a", "if both factors have a total dominating set then so "
                       "does the product", True, _check_t2a),
    TheoremSpec("T2b", "if the product has a total dominating set then so do "
                       "both factors", False, _check_t2b),
    TheoremSpec("T3", "nu_t(GxH) <= min(|D2| * nu_t(G), |D1| * nu_t(H)) for "
                      "minimum total dominating sets D1, D2 of the factors",
                True, _check_t3),
    TheoremSpec("T4a", "nu_t(GxH) = p iff every product vertex has exactly "
                       "one effective neighbor", False, _check_t4a),
    TheoremSpec("T4b", "nu_t(GxH) = p iff every left-factor vertex has "
                       "exactly one effective neighbor", False, _check_t4b),
    TheoremSpec("T5", "nu_t(GxH) = p implies the product has an even number "
                      "of vertices", False, _check_t5),
    TheoremSpec("T6", "complete factors give a complete product", True,
                _check_t6),
    TheoremSpec("T7", "in a complete product every left and right fiber is a "
                      "dominating set", True, _check_t7),
    TheoremSpec("T8", "nu(GxH) = p iff the product has no effective edge",
                False, _check_t8),
    TheoremSpec("T9", "nu_t(GxH) >= max(gamma_t^2a(G), gamma_t^2a(H)) for "
                      "nontrivial connected factors with sigma >= a", False,
                _check_t9),
    TheoremSpec("T10", "nu(GxH) >= max(gamma^2a(G), gamma^2a(H)) for "
                       "nontrivial connected factors with sigma >= a", False,
                _check_t10),
    TheoremSpec("T11", "f(g) = min(2a, fc(S within g's fiber)) built from a "
                       "minimum total dominating set S of the product is a "
                       "total 2a-dominating function of the left factor",
                False, _check_t11),
    TheoremSpec("T12", "the fiber function f(g) = min(2a, fc(S within g's "
                       "fiber)) has weight w(f) <= fc(S)", True,
                _check_t12),
)

REGISTRY: dict[str, TheoremSpec] = {spec.theorem_id: spec for spec in _SPECS}
THEOREM_IDS: tuple[str, ...] = tuple(spec.theorem_id for spec in _SPECS)
FORCED_IDS: tuple[str, ...] = tuple(s.theorem_id for s in _SPECS if s.forced)
HYPOTHESIS_IDS: tuple[str, ...] = tuple(
    s.theorem_id for s in _SPECS if not s.forced)


def check_theorem(theorem_id: str, g: FuzzyGraph, h: FuzzyGraph,
                  alpha: Optional[Fraction] = None) -> CheckResult:
    """Run one claim checker on one factor pair."""
    if theorem_id not in REGISTRY:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    return REGISTRY[theorem_id].check(_PairContext(g, h, alpha))


def shrink(g: FuzzyGraph, h: FuzzyGraph, theorem_id: str,
           alpha: Optional[Fraction] = None) -> tuple[FuzzyGraph, FuzzyGraph]:
    """Greedily remove vertices and edges while the violation persists.

    Deterministic: passes sweep left factor then right, vertices by index
    then edges by canonical order, until a full pass changes nothing.
    """
    if check_theorem(theorem_id, g, h, alpha).status != "violated":
        raise ValueError("shrink requires a violating instance")

    def without(graph: FuzzyGraph, part: str, idx: int) -> FuzzyGraph:
        vertices = list(zip(graph.vertices, graph.sigma))
        edges = list(graph.edges)
        if part == "vertices":
            vid = vertices.pop(idx)[0]
            edges = [e for e in edges if vid not in (e[0], e[1])]
        else:
            del edges[idx]
        return FuzzyGraph.build(name=graph.name, vertices=vertices,
                                edges=edges)

    pair = [g, h]
    changed = True
    while changed:
        changed = False
        for side in (0, 1):
            for part in ("vertices", "edges"):
                i = 0
                while i < len(getattr(pair[side], part)):
                    trial = list(pair)
                    trial[side] = without(pair[side], part, i)
                    if check_theorem(theorem_id, *trial,
                                     alpha).status == "violated":
                        pair = trial
                        changed = True
                    else:
                        i += 1
    return pair[0], pair[1]


@dataclass
class TheoremReport:
    theorem_id: str
    quote_anchor: str
    instances_checked: int
    status: Literal["holds-on-corpus", "counterexample-found", "not-applicable"]
    counterexamples: list[dict] = field(default_factory=list)
    wall_time_ms: int = 0


def run_corpus(
    pairs: Sequence[tuple[GenParams, GenParams]],
    theorem_ids: Optional[Sequence[str]] = None,
    alpha: Optional[Fraction] = None,
) -> list[TheoremReport]:
    """Check the requested claims over generated pairs and aggregate reports.

    Reports come back in registry order. Every violation, of a forced claim
    or a hypothesis claim alike, is counted, and the first
    MAX_STORED_COUNTEREXAMPLES per claim are shrunk and recorded. A forced
    claim with status counterexample-found is an implementation bug; the
    caller decides what to do with it (fuzzydom check exits 1).
    """
    if theorem_ids is None:
        selected = list(THEOREM_IDS)
    else:
        unknown = [t for t in theorem_ids if t not in REGISTRY]
        if unknown:
            raise ValueError(f"unknown theorem ids: {', '.join(unknown)}")
        selected = [t for t in THEOREM_IDS if t in set(theorem_ids)]
    if alpha is not None:
        alpha = _level(alpha)
    for left, right in pairs:
        if left.vertex_count * right.vertex_count > PRODUCT_VERTEX_CAP:
            raise ValueError(
                f"pair produces {left.vertex_count * right.vertex_count} "
                f"product vertices, above the cap of {PRODUCT_VERTEX_CAP}")

    applicable = {tid: 0 for tid in selected}
    stored: dict[str, list[dict]] = {tid: [] for tid in selected}
    violations = {tid: 0 for tid in selected}
    elapsed = {tid: 0.0 for tid in selected}

    for left_params, right_params in pairs:
        g = gen_random(left_params)
        h = gen_random(right_params)
        ctx = _PairContext(g, h, alpha)
        for tid in selected:
            start = time.perf_counter()
            result = REGISTRY[tid].check(ctx)
            if result.status != "not-applicable":
                applicable[tid] += 1
            if result.status == "violated":
                violations[tid] += 1
                if len(stored[tid]) < MAX_STORED_COUNTEREXAMPLES:
                    small_g, small_h = shrink(g, h, tid, alpha)
                    verdict = check_theorem(tid, small_g, small_h, alpha)
                    assert verdict.status == "violated"
                    stored[tid].append({
                        "g": fileformat.document_of(small_g),
                        "h": fileformat.document_of(small_h),
                        "witness": verdict.witness,
                    })
            elapsed[tid] += time.perf_counter() - start

    reports = []
    for tid in selected:
        if violations[tid] > 0:
            status = "counterexample-found"
        elif applicable[tid] > 0:
            status = "holds-on-corpus"
        else:
            status = "not-applicable"
        reports.append(TheoremReport(
            theorem_id=tid,
            quote_anchor=REGISTRY[tid].quote_anchor,
            instances_checked=applicable[tid],
            status=status,
            counterexamples=stored[tid],
            wall_time_ms=int(elapsed[tid] * 1000),
        ))
    return reports


def reports_to_json(reports: Sequence[TheoremReport]) -> list[dict]:
    return [asdict(r) for r in reports]


def save_report(reports: Sequence[TheoremReport], path: str) -> None:
    import json

    # serialize before opening, so a failure leaves an existing file as it was
    text = json.dumps(reports_to_json(reports), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def replay_counterexample(theorem_id: str, record: dict) -> CheckResult:
    """Re-run a checker on a serialized counterexample pair."""
    g = fileformat.graph_of_document(record["g"])
    h = fileformat.graph_of_document(record["h"])
    witness = record.get("witness") or {}
    alpha = Fraction(witness["alpha"]) if "alpha" in witness else None
    return check_theorem(theorem_id, g, h, alpha)


def replay_report(report_json: Sequence[dict]) -> list[str]:
    """Verify every stored counterexample still violates; return problems."""
    problems = []
    for entry in report_json:
        tid = entry["theorem_id"]
        for k, record in enumerate(entry["counterexamples"]):
            result = replay_counterexample(tid, record)
            if result.status != "violated":
                problems.append(
                    f"{tid} counterexample {k} no longer violates "
                    f"(got {result.status})")
            elif result.witness != record["witness"]:
                problems.append(
                    f"{tid} counterexample {k} reproduces a different witness")
    return problems
