"""Command line interface.

Exit codes: 0 success, 1 negative verification outcome (oracle mismatch
or a census violation), 2 usage error, 3 malformed input (an unparsable
file, a path that cannot be opened or created, or a value outside its
domain), 4 budget exhausted.
Any other exception is a bug and leaves with a traceback. All stdout
output is deterministic for a given input.
"""

from __future__ import annotations

import argparse
import logging
import sys
from fractions import Fraction
from typing import Optional

from .census import CensusConfig, build_census, check_conjecture, deletion_order_gap
from .complexes import (
    DEFAULT_COLLAPSE_BUDGET,
    EXHAUSTED,
    clique_complex,
    is_collapsible,
)
from .contract import (
    contractible_reduction,
    edge_extended_reduction,
    is_strong_contractible,
    is_strong_contractible_any_order,
)
from .errors import BudgetExceededError, InputError, check_collapse_budget, check_jobs
from .graphs import load_graph, to_edge_list_text
from .homology import Coefficients, homology
from .persistence import (
    _checked_thresholds,
    barcode,
    oracle_persistence,
    parse_distance_matrix,
    parse_points,
    vr_filtration,
)

USAGE_ERROR = 2
INPUT_ERROR = 3
BUDGET_ERROR = 4

# A path the user names that cannot be opened or created is bad input;
# other OSErrors, such as a broken pipe on stdout, are not.
BAD_PATH_ERRORS = (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError, FileExistsError)


def _flag_word(value: Optional[bool]) -> str:
    if value is None:
        return "unknown"
    return "yes" if value else "no"


def _collapse_verdict(g, budget: int):
    if g.n == 0:
        raise InputError("collapsibility is undefined for the empty complex")
    return is_collapsible(clique_complex(g), budget=budget)


def _cmd_check(args) -> int:
    if args.with_collapse:
        _checked(check_collapse_budget, args.budget)
    g = load_graph(args.file)
    if args.any_order:
        strong = is_strong_contractible_any_order(g)
    else:
        strong = is_strong_contractible(g)
    print(f"IS: {_flag_word(strong)}")
    if args.with_collapse:
        verdict = _collapse_verdict(g, args.budget)
        print(f"C: {_flag_word(verdict.collapsible)}")
        if verdict.status == EXHAUSTED:
            return BUDGET_ERROR
    return 0


def _cmd_reduce(args) -> int:
    g = load_graph(args.file)
    if args.edges:
        reduced, trace = edge_extended_reduction(g)
    else:
        reduced, trace = contractible_reduction(g)
    # The file first: a path that cannot be created exits 3 with nothing
    # printed.
    if args.trace is not None:
        with open(args.trace, "w") as fh:
            fh.write(trace.to_text())
    sys.stdout.write(to_edge_list_text(reduced))
    return 0


def _cmd_collapse(args) -> int:
    _checked(check_collapse_budget, args.budget)
    g = load_graph(args.file)
    verdict = _collapse_verdict(g, args.budget)
    if verdict.witness is not None and args.witness is not None:
        with open(args.witness, "w") as fh:
            for pair in verdict.witness:
                sigma = " ".join(str(v) for v in pair.sigma)
                tau = " ".join(str(v) for v in pair.tau)
                fh.write(f"{sigma} < {tau}\n")
    print(f"collapsible: {_flag_word(verdict.collapsible)}")
    if verdict.status == EXHAUSTED:
        return BUDGET_ERROR
    return 0


def _checked(make, *args, **kwargs):
    """Call a function that only validates and converts command line
    values, reporting its ValueError as an InputError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _check_max_dim(max_dim: Optional[int]) -> None:
    if max_dim is not None and max_dim < 0:
        raise InputError(f"max_dim must be nonnegative, got {max_dim}")


def _cmd_homology(args) -> int:
    g = load_graph(args.file)
    coeffs = Coefficients(None) if args.integers else _checked(Coefficients, 2 if args.mod is None else args.mod)
    _check_max_dim(args.max_dim)
    h = homology(g, coeffs, max_dim=args.max_dim, with_representatives=False)
    sys.stdout.write(h.to_text())
    return 0


def _parse_threshold_list(text: str) -> tuple[Fraction, ...]:
    try:
        given = [Fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad threshold list {text!r}: {exc}") from None
    return _checked(_checked_thresholds, given)


def _jobs(text: str) -> int:
    try:
        return check_jobs(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_vr(args) -> int:
    if args.points is not None:
        with open(args.points) as fh:
            cloud = parse_points(fh.read(), source=args.points)
    else:
        with open(args.matrix) as fh:
            cloud = parse_distance_matrix(fh.read(), source=args.matrix)
    thresholds = _parse_threshold_list(args.thresholds) if args.thresholds is not None else None
    _check_max_dim(args.max_dim)
    filt = vr_filtration(cloud, thresholds)
    bc = barcode(filt, max_dim=args.max_dim)
    sys.stdout.write(bc.to_csv())
    if args.oracle:
        reference = oracle_persistence(filt, max_dim=args.max_dim)
        if reference == bc:
            print("oracle: MATCH")
        else:
            print("oracle: MISMATCH")
            return 1
    return 0


def _cmd_census(args) -> int:
    config = _checked(CensusConfig, max_n=args.max_n, collapse_budget=args.budget, jobs=args.jobs)
    # Progress records from the census, one plain line each on stderr.
    logger = logging.getLogger("graphcollapse")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        census = build_census(config, out_dir=args.out)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    for n, count in census.counts().items():
        print(f"n {n} {count}")
    report = check_conjecture(census)
    sys.stdout.write(report.to_text())
    if args.check_order:
        gap = deletion_order_gap(census)
        print(f"order-gap {len(gap)}")
        for h in gap:
            print(f"order-gap-example {h}")
    return 0 if report.holds else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcollapse",
        description="Contractible graph reductions, clique-complex collapses, "
        "homology, and Vietoris-Rips persistence on collapsed filtrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a graph with the greedy vertex-deletion recursion")
    p.add_argument("file", help="graph file (edge list or 0/1 adjacency matrix)")
    p.add_argument("--any-order", action="store_true", help="try every deletion order")
    p.add_argument("--with-collapse", action="store_true", help="also search for a collapse sequence")
    p.add_argument("--budget", type=int, default=DEFAULT_COLLAPSE_BUDGET, help="collapse search node budget")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reduce", help="delete vertices with contractible neighborhoods until stuck")
    p.add_argument("file")
    p.add_argument("--edges", action="store_true", help="when stuck, also delete qualifying edges")
    p.add_argument("--trace", metavar="PATH", help="write the deletion trace here")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("collapse", help="search for a collapse of the clique complex to a point")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=DEFAULT_COLLAPSE_BUDGET)
    p.add_argument("--witness", metavar="PATH", help="write the collapse sequence here")
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("homology", help="homology of the clique complex")
    p.add_argument("file")
    field = p.add_mutually_exclusive_group()
    # No default for --mod: argparse does not count an option whose value
    # is its default as given, so --mod 2 --integers would pass.
    field.add_argument("--mod", type=int, help="prime field modulus (default 2)")
    field.add_argument("--integers", action="store_true", help="integer coefficients with torsion")
    p.add_argument("--max-dim", type=int, default=None)
    p.set_defaults(func=_cmd_homology)

    vr_help = "barcode of a Vietoris-Rips filtration: edges collapsed across all stages, then one column reduction"
    p = sub.add_parser("vr", help=vr_help, description=vr_help)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", metavar="FILE", help="coordinates, one point per line (scale = squared distance)")
    src.add_argument("--matrix", metavar="FILE", help="symmetric dissimilarity matrix")
    p.add_argument("--max-dim", type=int, default=1)
    p.add_argument("--thresholds", help="comma-separated scales (0 is prepended if missing)")
    p.add_argument("--oracle", action="store_true", help="cross-check against direct matrix reduction")
    p.set_defaults(func=_cmd_vr)

    p = sub.add_parser("census", help="classify all small connected graphs and check the implication")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--budget", type=int, default=DEFAULT_COLLAPSE_BUDGET)
    p.add_argument("--jobs", type=_jobs, default=1, help="worker processes for classification")
    p.add_argument("--out", metavar="DIR", help="save/resume census files here")
    p.add_argument("--check-order", action="store_true", help="also compare greedy vs any-order deletion")
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, UnicodeDecodeError, *BAD_PATH_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_ERROR


if __name__ == "__main__":
    sys.exit(main())
