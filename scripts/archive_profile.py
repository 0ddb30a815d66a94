#!/usr/bin/env python3
"""Run the archive search once and print what every cell ended up holding.

Useful for eyeballing how the archive illuminates the whole descriptor range
(solution sizes, or covered-element counts) rather than just the best cell.

Example:
    python scripts/archive_profile.py --n 30 --budget 50000
"""

import argparse
import sys

from qdpb.algorithms import RunConfig, run_map_elites
from qdpb.analysis import qd_metrics
from qdpb.errors import QdpbError
from qdpb.harness import ProblemSpec, resolve_problem


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=("example1", "example2"), default="example1")
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--delta", default="1/10", help="example1 only")
    ap.add_argument("--budget", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    delta = args.delta if args.kind == "example1" else None
    problem = resolve_problem(ProblemSpec(kind=args.kind, n=args.n, delta=delta))
    trace = run_map_elites(
        problem,
        RunConfig(budget=args.budget, init_count=problem.num_cells, seed=args.seed),
    )
    archive = trace.archive
    print(
        f"{problem.name} n={problem.n}: {len(archive)}/{problem.num_cells} cells "
        f"occupied after {trace.evaluations_used} evaluations"
    )
    for cell, solution, fitness in archive.occupants():
        marker = ""
        if problem.known_opt is not None and fitness == problem.known_opt:
            marker = "  <- optimum"
        print(f"  cell {cell:3d}: fitness {fitness:>6}  {solution.to_string()}{marker}")
    metrics = qd_metrics(archive)
    print(
        f"coverage {metrics.coverage}, best feasible {metrics.optimization}, "
        f"qd-score {metrics.qd_score}"
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except QdpbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
