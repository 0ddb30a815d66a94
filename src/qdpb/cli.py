"""Command-line front end.

Subcommands: gen-instance, run, oracle, analyze, verify.  Exit codes: 0 on
success, 1 for configuration problems (bad flags, bad files, bad parameters)
and for failed verification, 2 for runtime errors.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import (
    _BRUTE_FORCE_LIMIT,
    SetFunctionTable,
    approximation_ratio,
    brute_force_opt,
    escape_radius,
    gamma_min,
)
from . import harness
from .core import Solution
from .errors import ParameterError, QdpbError, ValidationError
from .harness import (
    ExperimentConfig,
    ProblemSpec,
    export_report,
    load_config,
    read_instance,
    resolve_problem,
    run_experiment,
    write_instance,
)
from .algorithms import QualityTarget
from .instances import identify_instance
from .problems import MaxCoverageInstance, make_problem

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit code for usage errors (1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _number(text: str):
    """Numbers on the command line: int when integral, float otherwise."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None


# ---------------------------------------------------------------------------
# gen-instance


def _cmd_gen_instance(args) -> int:
    _, takes, build = harness._KIND_TABLE[args.family]
    inst, _ = build(ProblemSpec(kind=args.family, **{name: getattr(args, name) for name in takes}))
    write_instance(inst, args.out)
    if isinstance(inst, MaxCoverageInstance):
        kind, detail = "max-coverage", f"k={inst.k}"
    else:
        kind, detail = "set-cover", f"penalty={inst.penalty}"
    print(f"wrote {kind} instance: n={inst.n} m={inst.m_elements} {detail} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# run


def _build_config_from_flags(args):
    """The config the flags describe, and its problem if resolving it was
    needed here (for --target-ratio), else None."""
    if args.instance is None:
        raise ParameterError("run needs --instance FILE (or --config FILE)")
    if args.budget is None:
        raise ParameterError("run needs --budget (or --config FILE)")
    spec = ProblemSpec(kind="file", path=args.instance)
    if args.target_ratio is not None and args.target_fitness is not None:
        raise ParameterError("give either --target-fitness or --target-ratio, not both")
    threshold = args.target_fitness
    problem = None
    if args.target_ratio is not None:
        problem = resolve_problem(spec)
        if problem.known_opt is None:
            raise ParameterError(
                "--target-ratio needs a known optimum; this instance is too large "
                "for the exact oracle and is not a recognized family"
            )
        threshold = args.target_ratio * problem.known_opt
    target = None
    if threshold is not None:
        target = QualityTarget(
            threshold=threshold,
            strict=args.target_strict,
            require_feasible=not args.target_allow_infeasible,
            required_cell=args.target_cell,
        )
    elif args.target_cell is not None or args.target_strict or args.target_allow_infeasible:
        raise ParameterError("target modifiers need --target-fitness or --target-ratio")
    seed_population = args.seed_population
    if seed_population is not None and seed_population.startswith("@"):
        seed_population = harness._read_seed_file(seed_population[1:])
    config = ExperimentConfig(
        problem=spec,
        algorithm=args.algo,
        budget=args.budget,
        trials=1 if args.trials is None else args.trials,
        master_seed=0 if args.master_seed is None else args.master_seed,
        init_count=args.init_count,
        target=target,
        stop_on_target=not args.run_to_budget,
        strict=not args.relaxed,
        seed_population=seed_population,
        allow_unfair=args.allow_unfair,
        workers=args.workers,
        milestone_every=args.milestone_every,
    )
    return config, problem


def _cmd_run(args) -> int:
    for path in (args.rows, args.document):
        if path is not None:
            harness._check_writable(path)
    problem = None
    if args.config is not None:
        given = [
            "--" + name.replace("_", "-")
            for name, value in vars(args).items()
            if name not in ("command", "handler", "config", "rows", "document")
            and value is not None and value is not False
        ]
        if given:
            raise ParameterError(f"--config replaces the experiment flags; drop {', '.join(given)}")
        config = load_config(args.config)
    else:
        if args.algo is None:
            raise ParameterError("run needs --algo map-elites|ea (or --config FILE)")
        config, problem = _build_config_from_flags(args)
    report = run_experiment(config) if problem is None else harness._run_experiment(config, problem)
    agg = report.aggregate
    print(
        f"problem: {report.problem_name} n={report.n} cells={report.num_cells}"
        + (f" OPT={report.known_opt}" if report.known_opt is not None else "")
    )
    print(
        f"algorithm: {config.algorithm} trials={config.trials} "
        f"budget={config.budget} master-seed={config.master_seed}"
    )
    if config.target is not None:
        print(f"successes: {agg.success_count}/{agg.trials} (median first hit {agg.median_first_hit})")
    if agg.median_ratio is not None:
        print(f"median ratio: {agg.median_ratio:g}")
    if agg.best_overall is not None:
        print(f"best fitness: {agg.best_overall:g} (median {agg.median_best_fitness:g})")
    if args.rows is not None:
        export_report(report, args.rows, form="rows")
        print(f"wrote rows -> {args.rows}")
    if args.document is not None:
        export_report(report, args.document, form="document")
        print(f"wrote document -> {args.document}")
    return 0


# ---------------------------------------------------------------------------
# oracle


def _cmd_oracle(args) -> int:
    # Not resolve_problem: its auto-oracle stops at a smaller n and would
    # enumerate the instance a second time.  This enumerates up to
    # brute_force_opt's own guard.
    inst = read_instance(args.instance)
    params = identify_instance(inst)
    problem = make_problem(inst, known_opt=None if params is None else params.opt_fitness)
    print(f"instance: {problem.name} n={problem.n} cells={problem.num_cells}")
    if problem.n <= _BRUTE_FORCE_LIMIT:
        result = brute_force_opt(problem)
        print(f"OPT={result.fitness}")
        print(f"optimum: {result.solution.to_string()}")
        print(f"optima count: {result.optima_count}")
    elif problem.known_opt is not None:
        print(f"OPT={problem.known_opt} (closed form; instance too large to enumerate)")
    else:
        raise ParameterError(
            f"n={problem.n} is too large for exhaustive search and the instance "
            "is not a recognized closed-form family"
        )
    if params is not None:
        print(f"recognized family: {type(params).__name__} (local optimum value {params.local_fitness})")
    if problem.name == "max-coverage" and problem.n <= 10:
        table = SetFunctionTable.from_coverage(problem.instance)
        print(f"gamma_min at k={problem.instance.k}: {gamma_min(table, problem.instance.k):g}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args) -> int:
    problem = resolve_problem(ProblemSpec(kind="file", path=args.instance))
    x = Solution.from_string(args.solution)
    fitness, cell, feasible = problem.probe(x)
    print(f"solution: {args.solution} (ones={x.ones()})")
    print(f"fitness: {fitness:g}")
    print(f"cell: {cell}")
    print(f"feasible: {'yes' if feasible else 'no'}")
    if problem.known_opt is not None:
        ratio = approximation_ratio(fitness, problem.known_opt)
        print(f"ratio: {ratio:g} (OPT={problem.known_opt})")
    if args.escape_radius:
        radius = escape_radius(x, problem)
        if radius > problem.n:
            print("escape radius: none (no strictly better solution exists)")
        else:
            print(f"escape radius: {radius}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    from . import acceptance

    if args.list:
        for cid, name in acceptance.criterion_summary():
            print(f"{cid}  {name}")
        return 0
    only = None
    if args.only is not None:
        only = tuple(part.strip() for part in args.only.split(",") if part.strip())
        if not only:
            raise ParameterError("--only got an empty criterion list")
    results = acceptance.run_all(only=only, report=print)
    failed = [r.cid for r in results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print(f"all {len(results)} criteria passed")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="qdpb", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", parser_class=_Parser)

    gen = subparsers.add_parser("gen-instance", help="generate an instance file")
    gen_sub = gen.add_subparsers(dest="family", parser_class=_Parser, required=True)
    for kind, (description, takes, _) in harness._KIND_TABLE.items():
        if kind == "file":
            continue
        sub = gen_sub.add_parser(kind, help=description, description=description)
        for name in takes:
            sub.add_argument(
                "--" + name.replace("_", "-"), type=str if name == "delta" else _number, required=True
            )
        sub.add_argument("--out", required=True, help="instance file to write")
        sub.set_defaults(handler=_cmd_gen_instance)

    run = subparsers.add_parser("run", help="run a multi-trial experiment")
    run.add_argument("--algo", choices=("map-elites", "ea"))
    run.add_argument("--instance", help="instance file")
    run.add_argument(
        "--config", help="full experiment config as JSON (takes no other flag but --rows and --document)"
    )
    run.add_argument("--budget", type=int)
    run.add_argument("--trials", type=int, help="default 1")
    run.add_argument("--master-seed", type=int, help="default 0")
    run.add_argument("--init-count", type=int)
    run.add_argument("--allow-unfair", action="store_true")
    run.add_argument(
        "--seed-population",
        help="'local', a bitstring, or @file with one bitstring per line (ea only)",
    )
    run.add_argument("--target-fitness", type=_number)
    run.add_argument("--target-ratio", type=float, help="threshold as a fraction of OPT")
    run.add_argument("--target-cell", type=int)
    run.add_argument("--target-strict", action="store_true")
    run.add_argument("--target-allow-infeasible", action="store_true")
    run.add_argument("--run-to-budget", action="store_true", help="do not stop at the target")
    run.add_argument("--relaxed", action="store_true", help="accept ties, not only strict improvements")
    run.add_argument("--milestone-every", type=int)
    run.add_argument("--workers", type=int)
    run.add_argument("--rows", help="write per-trial CSV here")
    run.add_argument("--document", help="write the full JSON report here")
    run.set_defaults(handler=_cmd_run)

    oracle = subparsers.add_parser("oracle", help="exact optimum of an instance file")
    oracle.add_argument("instance", help="instance file")
    oracle.set_defaults(handler=_cmd_oracle)

    analyze = subparsers.add_parser("analyze", help="inspect one solution on an instance")
    analyze.add_argument("instance", help="instance file")
    analyze.add_argument("--solution", required=True, help="bitstring")
    analyze.add_argument(
        "--escape-radius",
        action="store_true",
        help="distance to the nearest strictly better solution (exhaustive, small n)",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    verify = subparsers.add_parser("verify", help="run the built-in acceptance suite")
    verify.add_argument("--list", action="store_true", help="list criteria and exit")
    verify.add_argument("--only", help="comma-separated criterion ids, e.g. c1,c7")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors (1) and --help (0)
        return exc.code if isinstance(exc.code, int) else 1
    if not hasattr(args, "handler"):
        parser.print_help()
        return 1
    try:
        return args.handler(args)
    except (ParameterError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QdpbError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 -- contract: any runtime failure exits 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
