"""Command-line surface.

Exit codes: 0 on success (including hypothesis-claim counterexamples,
which are data, not errors), 1 when something is wrong with the input or
a forced claim is violated, 2 for usage errors (argparse's convention).
main is the one place that turns an input error into a message and exit 1.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import fileformat, harness
from .alpha import gamma_alpha, gamma_t_alpha
from .core import GraphError
from .domination import DominationResult, brute_force_min, min_dominating, \
    min_total_dominating, TooLargeError
from .product import direct_product
from .weights import WeightError, format_weight, parse_weight


def _weight_arg(text: str) -> Fraction:
    try:
        return parse_weight(text)
    except WeightError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_weight_arg(text: str) -> Fraction:
    value = _weight_arg(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("alpha must be positive")
    return value


# CLI key -> (GenParams field, parser of the raw value)
_GEN_PARAMS_KEYS = {"vertices": ("vertex_count", int),
                    "edge-prob": ("edge_probability", parse_weight),
                    "effective-prob": ("effective_probability", parse_weight),
                    "grid": ("sigma_grid", int)}
# GenParams defaults shared by check's --*-params and gen's options
_GEN_DEFAULTS = {"edge_probability": Fraction(1, 2),
                 "effective_probability": Fraction(1, 2), "sigma_grid": 10}


def _gen_params_arg(text: str) -> dict:
    """Parse "vertices=3,edge-prob=0.5,effective-prob=0.5,grid=10".

    Returns GenParams keyword arguments for everything but the seed.
    """
    fields = {"vertex_count": None, **_GEN_DEFAULTS}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"expected key=value in params, got {part!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _GEN_PARAMS_KEYS:
            raise argparse.ArgumentTypeError(
                f"unknown params key {key!r} "
                f"(expected {', '.join(_GEN_PARAMS_KEYS)})")
        field, parse = _GEN_PARAMS_KEYS[key]
        try:
            fields[field] = parse(raw)
        except (ValueError, WeightError) as exc:
            raise argparse.ArgumentTypeError(f"{key}: {exc}") from exc
    if fields["vertex_count"] is None:
        raise argparse.ArgumentTypeError("params must set vertices=N")
    return fields


def _theorem_list_arg(text: str) -> list[str]:
    ids = [t.strip() for t in text.split(",") if t.strip()]
    unknown = [t for t in ids if t not in harness.REGISTRY]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown theorem ids: {', '.join(unknown)}")
    return ids


def _witness_text(witness: Sequence[str]) -> str:
    return "{" + ", ".join(witness) + "}"


def _print_domination(result: DominationResult) -> None:
    if not result.found:
        print("no total dominating set")
        return
    label = "nu_t" if result.kind == "total" else "nu"
    print(f"{label} = {format_weight(result.optimum)}, "
          f"witness = {_witness_text(result.witness)}")


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        fileformat.load(args.file)
    except fileformat.ValidationFailedError as exc:
        for violation in exc.violations:
            print(violation)
        return 1
    print("ok")
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    left = fileformat.load(args.left)
    right = fileformat.load(args.right)
    product = direct_product(left, right, separator=args.separator)
    fileformat.save(product, args.output)
    return 0


def _cmd_dominate(args: argparse.Namespace) -> int:
    graph = fileformat.load(args.file)
    if args.oracle:
        result = brute_force_min(graph, "total" if args.total else "dominating")
    elif args.total:
        result = min_total_dominating(graph)
    else:
        result = min_dominating(graph)
    _print_domination(result)
    return 0


def _cmd_alpha(args: argparse.Namespace) -> int:
    graph = fileformat.load(args.file)
    if args.closed:
        result = gamma_alpha(graph, args.alpha)
        print(f"gamma = {format_weight(result.weight)}")
        return 0
    result = gamma_t_alpha(graph, args.alpha)
    if result is None:
        print("no total alpha-dominating function")
        return 0
    print(f"gamma_t = {format_weight(result.weight)}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        params = harness.GenParams(
            vertex_count=args.vertices,
            edge_probability=args.edge_prob,
            effective_probability=args.effective_prob,
            sigma_grid=args.grid,
            seed=args.seed,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    fileformat.save(harness.gen_random(params), args.out)
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    graph = fileformat.load(args.file)
    fileformat.export_dot(graph, args.output)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    pairs = []
    try:
        if args.seeds < 1:
            raise ValueError("--seeds must be at least 1")
        for i in range(args.seeds):
            seed = args.base_seed + 2 * i
            pairs.append((harness.GenParams(**args.left_params, seed=seed),
                          harness.GenParams(**args.right_params,
                                            seed=seed + 1)))
        reports = harness.run_corpus(pairs, theorem_ids=args.theorems,
                                     alpha=args.alpha)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    harness.save_report(reports, args.output)
    failed_forced = []
    for report in reports:
        line = f"{report.theorem_id}: {report.status}"
        if report.status != "not-applicable":
            line += f" ({report.instances_checked} instances"
            if report.counterexamples:
                line += f", {len(report.counterexamples)} counterexamples stored"
            line += ")"
        print(line)
        if (report.status == "counterexample-found"
                and harness.REGISTRY[report.theorem_id].forced):
            failed_forced.append(report.theorem_id)
    if failed_forced:
        print("forced claim(s) violated: " + ", ".join(failed_forced),
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzydom",
        description="Exact domination numbers, total alpha-domination, and "
                    "claim checking for direct products of fuzzy graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("product", help="write the direct product of two graphs")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--separator", default="|",
                   help="string joining factor ids in product vertex ids")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("dominate",
                       help="minimum (total) dominating set and its value")
    p.add_argument("file")
    p.add_argument("--total", action="store_true",
                   help="total domination instead of domination")
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force oracle instead of the solver")
    p.set_defaults(fn=_cmd_dominate)

    p = sub.add_parser("alpha", help="alpha-domination number via exact LP")
    p.add_argument("file")
    p.add_argument("--alpha", required=True, type=_positive_weight_arg)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--total", action="store_true",
                       help="open neighborhoods (default)")
    group.add_argument("--closed", action="store_true",
                       help="closed neighborhoods")
    p.set_defaults(fn=_cmd_alpha)

    p = sub.add_parser("check", help="run claim checkers over a random corpus")
    p.add_argument("--left-params", required=True, type=_gen_params_arg,
                   metavar="vertices=N[,edge-prob=P][,effective-prob=Q][,grid=D]")
    p.add_argument("--right-params", required=True, type=_gen_params_arg,
                   metavar="vertices=N[,edge-prob=P][,effective-prob=Q][,grid=D]")
    p.add_argument("--seeds", required=True, type=int,
                   help="number of generated pairs")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--theorems", type=_theorem_list_arg, default=None,
                   metavar="T1,T2a,...")
    p.add_argument("--alpha", type=_positive_weight_arg, default=None,
                   help="override the min-sigma alpha level")
    p.add_argument("-o", "--output", required=True, help="report JSON path")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("gen", help="write a seeded random graph")
    p.add_argument("--out", required=True)
    p.add_argument("--vertices", required=True, type=int)
    p.add_argument("--edge-prob", type=_weight_arg,
                   default=_GEN_DEFAULTS["edge_probability"])
    p.add_argument("--effective-prob", type=_weight_arg,
                   default=_GEN_DEFAULTS["effective_probability"])
    p.add_argument("--grid", type=int, default=_GEN_DEFAULTS["sigma_grid"])
    p.add_argument("--seed", required=True, type=int)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("export-dot", help="write a DOT drawing of a graph")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_export_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, fileformat.FileFormatError, TooLargeError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
