"""Exact domination theory on direct products of fuzzy graphs.

The package computes, with exact rational arithmetic throughout:

* fuzzy graphs, effective edges, and neighborhood machinery (core);
* the direct product of two fuzzy graphs with factor provenance (product);
* minimum fuzzy-cardinality dominating and total dominating sets by
  branch-and-bound, cross-checked by a brute-force oracle (domination);
* total alpha-domination numbers by exact-rational LP (alpha, simplex);
* a seeded random-corpus harness that checks each product-domination
  claim and reports counterexamples for the fragile ones (harness);
* a JSON graph format, DOT export, and a CLI (fileformat, cli).
"""

from .core import (
    FuzzyGraph,
    ProductTag,
    GraphError,
    GraphStructureError,
    InvalidGraphError,
    UnknownVertexError,
    closed_neighborhood,
    effective_edges,
    fuzzy_cardinality,
    fuzzy_order,
    is_complete,
    is_crisp_connected,
    is_effective,
    open_neighborhood,
)
from .weights import (
    MalformedWeightError,
    OutOfRangeError,
    OverPrecisionError,
    WeightError,
    format_weight,
    parse_weight,
)
from .product import (
    MissingTagError,
    ProductError,
    direct_product,
    fiber_left,
    fiber_right,
    is_complete_product,
)
from .domination import (
    DominationResult,
    TooLargeError,
    brute_force_min,
    has_total_dominating,
    is_dominating,
    is_total_dominating,
    min_dominating,
    min_total_dominating,
)
from .alpha import (
    AlphaFunction,
    LpInstance,
    brute_force_lp_min,
    build_lp,
    gamma_alpha,
    gamma_t_alpha,
    proof_function_total,
    verify_alpha_function,
)
from .harness import (
    CheckResult,
    GenParams,
    TheoremReport,
    check_theorem,
    gen_random,
    replay_report,
    run_corpus,
    shrink,
    FORCED_IDS,
    HYPOTHESIS_IDS,
    THEOREM_IDS,
)
from .fileformat import (
    FileFormatError,
    ValidationFailedError,
    export_dot,
    graph_of_document,
    document_of,
    load,
    save,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaFunction",
    "CheckResult",
    "DominationResult",
    "FileFormatError",
    "FuzzyGraph",
    "GenParams",
    "GraphError",
    "GraphStructureError",
    "InvalidGraphError",
    "LpInstance",
    "MalformedWeightError",
    "MissingTagError",
    "OutOfRangeError",
    "OverPrecisionError",
    "ProductError",
    "ProductTag",
    "TheoremReport",
    "TooLargeError",
    "UnknownVertexError",
    "ValidationFailedError",
    "WeightError",
    "FORCED_IDS",
    "HYPOTHESIS_IDS",
    "THEOREM_IDS",
    "brute_force_lp_min",
    "brute_force_min",
    "build_lp",
    "check_theorem",
    "closed_neighborhood",
    "direct_product",
    "document_of",
    "effective_edges",
    "export_dot",
    "fiber_left",
    "fiber_right",
    "format_weight",
    "fuzzy_cardinality",
    "fuzzy_order",
    "gamma_alpha",
    "gamma_t_alpha",
    "gen_random",
    "graph_of_document",
    "has_total_dominating",
    "is_complete",
    "is_complete_product",
    "is_crisp_connected",
    "is_dominating",
    "is_effective",
    "is_total_dominating",
    "load",
    "min_dominating",
    "min_total_dominating",
    "open_neighborhood",
    "parse_weight",
    "proof_function_total",
    "replay_report",
    "run_corpus",
    "save",
    "shrink",
    "verify_alpha_function",
]
