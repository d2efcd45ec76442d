#!/usr/bin/env python3
"""Classify every connected graph up to a vertex bound and check that
the graphs passing the greedy deletion test are exactly the ones whose
clique complex collapses.

Level files are written after each vertex count, so an interrupted run
resumes where it stopped:

    python3 scripts/run_census.py --max-n 8 --out runs/census --jobs 4
"""

import argparse
import logging
import sys
import time
from pathlib import Path

from graphcollapse.census import (
    CensusConfig,
    build_census,
    check_conjecture,
    deletion_order_gap,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=8,
                    help="largest vertex count to enumerate (default 8)")
    ap.add_argument("--out", metavar="DIR",
                    help="directory for resumable level files")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes for classification")
    ap.add_argument("--budget", type=int, default=1_000_000,
                    help="node budget per collapse search")
    ap.add_argument("--check-order", action="store_true",
                    help="also compare the greedy order against every order")
    args = ap.parse_args()

    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    # Census progress, one plain line per level on stderr.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger = logging.getLogger("graphcollapse")
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    started = time.monotonic()
    census = build_census(
        CensusConfig(
            max_n=args.max_n, collapse_budget=args.budget, jobs=args.jobs
        ),
        out_dir=out_dir,
    )
    elapsed = time.monotonic() - started

    for n, count in census.counts().items():
        strong = sum(1 for e in census.levels[n] if e.in_strong)
        print(f"n={n}: {count} graphs, {strong} pass the deletion test")
    report = check_conjecture(census)
    print()
    print(report.to_text(), end="")
    print(f"elapsed {elapsed:.1f}s")

    if args.check_order:
        gap = deletion_order_gap(census)
        if gap:
            print(f"order-dependent graphs: {len(gap)}")
            for h in gap:
                print(f"  {h}")
        else:
            print("no graph depends on the deletion order")

    return 0 if report.holds else 1


if __name__ == "__main__":
    sys.exit(main())
