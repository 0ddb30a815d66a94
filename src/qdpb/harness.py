"""Multi-trial experiment driver: one config in, one serializable report out.

A report is deterministic given the config: trial ``i`` always runs with seed
``master_seed + i``, and parallel execution (``workers`` or the
``QDPB_WORKERS`` environment variable) only changes wall-clock time, not a
single recorded number.  Reports round-trip through JSON exactly, and a
compact CSV form carries one row per trial for spreadsheet work.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .algorithms import (
    Archive,
    Milestone,
    QualityTarget,
    RunConfig,
    RunTrace,
    run_ea,
    run_map_elites,
)
from .analysis import approximation_ratio, brute_force_opt, qd_metrics
from .core import RandomSource, Solution
from .errors import ParameterError, ValidationError, require_ints, require_numbers
from .instances import (
    Example1Params,
    Example2Params,
    example1_local_optimum,
    example1_max_coverage,
    example2_local_optimum,
    example2_set_cover,
    identify_instance,
    random_max_coverage,
    random_set_cover,
    read_instance,
)
from .problems import Direction, Fitness, Problem, make_problem

__all__ = [
    "REPORT_FORMAT",
    "PROBLEM_KINDS",
    "ProblemSpec",
    "ExperimentConfig",
    "TrialRecord",
    "Aggregate",
    "ExperimentReport",
    "resolve_problem",
    "resolve_seed_members",
    "run_experiment",
    "export_report",
    "load_report",
    "config_to_dict",
    "config_from_dict",
]

REPORT_FORMAT = "qdpb-report-v1"
PROBLEM_KINDS = (
    "example1",
    "example2",
    "file",
    "random-max-coverage",
    "random-set-cover",
)

# Auto-computing the optimum by brute force is limited to instances the exact
# oracle handles; larger problems simply report no ratio column.
_AUTO_OPT_LIMIT = 24


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative problem selection, JSON-friendly on purpose.

    kind="example1"            bipartite max-coverage family; needs n, delta ("1/10")
    kind="example2"            umbrella-vs-singletons set cover; needs n
    kind="file"                load any instance file; needs path
    kind="random-max-coverage" needs n, m_elements, density, k, instance_seed
    kind="random-set-cover"    needs n, m_elements, density, max_weight, instance_seed
    """

    kind: str
    n: Optional[int] = None
    delta: Optional[str] = None
    path: Optional[str] = None
    m_elements: Optional[int] = None
    density: Optional[float] = None
    k: Optional[int] = None
    max_weight: Optional[int] = None
    instance_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in PROBLEM_KINDS:
            raise ParameterError(
                f"unknown problem kind {self.kind!r}; expected one of {', '.join(PROBLEM_KINDS)}"
            )
        required = {
            "example1": ("n", "delta"),
            "example2": ("n",),
            "file": ("path",),
            "random-max-coverage": ("n", "m_elements", "density", "k", "instance_seed"),
            "random-set-cover": ("n", "m_elements", "density", "max_weight", "instance_seed"),
        }[self.kind]
        for name in required:
            if getattr(self, name) is None:
                raise ParameterError(f"problem kind {self.kind!r} requires {name!r}")
        require_ints(self, (), optional=("n", "m_elements", "k", "max_weight", "instance_seed"))
        require_numbers(self, (), optional=("density",))


def resolve_problem(spec: ProblemSpec) -> Problem:
    """Build the runnable problem, filling in the optimum when it is known.

    Constructed families carry a closed-form optimum; file and random
    instances fall back to the exhaustive oracle when small enough, and to
    ``known_opt=None`` (no ratio reporting) otherwise.
    """
    if spec.kind == "example1":
        params = Example1Params(spec.n, Fraction(spec.delta))
        return make_problem(example1_max_coverage(params), known_opt=params.opt_fitness)
    if spec.kind == "example2":
        params = Example2Params(spec.n)
        return make_problem(example2_set_cover(params), known_opt=params.opt_fitness)
    if spec.kind == "file":
        inst = read_instance(spec.path)
    elif spec.kind == "random-max-coverage":
        inst = random_max_coverage(
            spec.n, spec.m_elements, spec.density, spec.k, RandomSource(spec.instance_seed)
        )
    else:
        inst = random_set_cover(
            spec.n,
            spec.m_elements,
            spec.density,
            spec.max_weight,
            RandomSource(spec.instance_seed),
        )
    params = identify_instance(inst)
    if params is not None:
        return make_problem(inst, known_opt=params.opt_fitness)
    if inst.n <= _AUTO_OPT_LIMIT:
        return make_problem(inst, known_opt=brute_force_opt(make_problem(inst)).fitness)
    return make_problem(inst)


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: problem, algorithm, budgets, seeds, and reporting knobs.

    ``init_count`` defaults to the problem's cell count so both engines start
    from the same number of evaluations; any other value is refused unless
    ``allow_unfair`` is set, to keep head-to-head comparisons honest.
    ``seed_population`` (EA only) is "local" for the instance family's
    built-in local optimum, a bitstring (replicated mu times), or an explicit
    tuple of bitstrings.
    """

    problem: ProblemSpec
    algorithm: str
    budget: int
    trials: int
    master_seed: int
    init_count: Optional[int] = None
    target: Optional[QualityTarget] = None
    stop_on_target: bool = True
    strict: bool = True
    seed_population: Union[None, str, tuple[str, ...]] = None
    allow_unfair: bool = False
    workers: Optional[int] = None
    milestone_every: Optional[int] = None

    def __post_init__(self) -> None:
        require_ints(
            self,
            ("budget", "trials", "master_seed"),
            optional=("init_count", "workers", "milestone_every"),
        )
        if self.algorithm not in ("map-elites", "ea"):
            raise ParameterError(
                f"unknown algorithm {self.algorithm!r}; expected 'map-elites' or 'ea'"
            )
        if self.trials < 1:
            raise ParameterError(f"trials must be positive, got {self.trials}")
        if self.master_seed < 0:
            raise ParameterError(f"master_seed must be non-negative, got {self.master_seed}")
        if self.seed_population is not None and self.algorithm == "map-elites":
            raise ParameterError("seed_population only applies to the ea algorithm")
        if self.workers is not None and self.workers < 1:
            raise ParameterError(f"workers must be positive, got {self.workers}")


@dataclass(frozen=True)
class TrialRecord:
    """Everything one trial produced, snapshots included."""

    trial: int
    seed: int
    evaluations_used: int
    first_hit: Optional[int]
    best_fitness: Optional[Fitness]
    best_solution: Optional[str]
    ratio: Optional[float]
    coverage: int
    qd_score: Fitness
    snapshots: tuple[Milestone, ...]


@dataclass(frozen=True)
class Aggregate:
    """Across-trial summary.  Medians skip trials without the quantity."""

    trials: int
    success_count: int
    success_rate: float
    median_best_fitness: Optional[float]
    median_ratio: Optional[float]
    median_first_hit: Optional[float]
    mean_evaluations: float
    best_overall: Optional[Fitness]


@dataclass(frozen=True)
class ExperimentReport:
    """The durable artifact of ``run_experiment``; serializes to JSON losslessly."""

    config: ExperimentConfig
    problem_name: str
    n: int
    num_cells: int
    direction: str
    known_opt: Optional[Fitness]
    records: tuple[TrialRecord, ...]
    aggregate: Aggregate
    format: str = REPORT_FORMAT


def resolve_seed_members(
    seed_population: Union[str, tuple[str, ...]],
    problem: Problem,
    init_count: int,
) -> tuple[Solution, ...]:
    """Turn the seed_population setting into concrete solutions.

    A single member (the "local" keyword or one bitstring) is replicated to
    the full population size; an explicit tuple must already have
    ``init_count`` members.
    """
    if seed_population == "local":
        params = identify_instance(problem.instance)
        if isinstance(params, Example1Params):
            member = example1_local_optimum(params)
        elif isinstance(params, Example2Params):
            member = example2_local_optimum(params)
        else:
            raise ParameterError(
                "seed_population='local' needs an instance from one of the two "
                "constructed families; this one was not recognized"
            )
        return (member,) * init_count
    if isinstance(seed_population, str):
        if set(seed_population) <= {"0", "1"} and seed_population:
            return (Solution.from_string(seed_population),) * init_count
        raise ParameterError(
            f"seed_population string must be 'local' or a 0/1 bitstring, got {seed_population!r}"
        )
    members = tuple(Solution.from_string(s) for s in seed_population)
    if len(members) == 1:
        return members * init_count
    if len(members) != init_count:
        raise ParameterError(
            f"seed_population has {len(members)} members, expected 1 or {init_count}"
        )
    return members


def _population_archive(trace: RunTrace, problem: Problem) -> Archive:
    """View the final EA population through the archive's insert rule so the
    diversity metrics mean the same thing for both algorithms."""
    archive = Archive(problem.num_cells)
    population = trace.population
    for solution, (fitness, cell, _feasible) in zip(population.solutions, population.results):
        archive.consider(cell, solution, fitness, problem.direction)
    return archive


def _record_from_trace(
    trial: int, seed: int, trace: RunTrace, problem: Problem
) -> TrialRecord:
    archive = trace.archive if trace.archive is not None else _population_archive(trace, problem)
    metrics = qd_metrics(archive, problem)
    ratio = None
    if problem.known_opt is not None and trace.best_fitness is not None:
        ratio = approximation_ratio(trace.best_fitness, problem.known_opt)
    best = trace.best_solution
    return TrialRecord(
        trial=trial,
        seed=seed,
        evaluations_used=trace.evaluations_used,
        first_hit=trace.first_hit,
        best_fitness=trace.best_fitness,
        best_solution=None if best is None else best.to_string(),
        ratio=ratio,
        coverage=metrics.coverage,
        qd_score=metrics.qd_score,
        snapshots=trace.milestones,
    )


def _run_one_trial(
    config: ExperimentConfig,
    problem: Problem,
    initial: Optional[tuple[Solution, ...]],
    trial: int,
) -> TrialRecord:
    seed = config.master_seed + trial
    init_count = config.init_count if config.init_count is not None else problem.num_cells
    run_config = RunConfig(
        budget=config.budget,
        init_count=init_count,
        seed=seed,
        target=config.target,
        strict=config.strict,
        stop_on_target=config.stop_on_target,
        initial_population=initial,
        milestone_every=config.milestone_every,
    )
    runner = run_map_elites if config.algorithm == "map-elites" else run_ea
    return _record_from_trace(trial, seed, runner(problem, run_config), problem)


def _trial_job(args) -> TrialRecord:
    # Worker-side entry point: rebuilds the problem from its picklable
    # instance (closures do not cross process boundaries).
    config, instance, known_opt, initial, trial = args
    return _run_one_trial(config, make_problem(instance, known_opt=known_opt), initial, trial)


def _aggregate(records: tuple[TrialRecord, ...], direction: Direction) -> Aggregate:
    successes = [r.first_hit for r in records if r.first_hit is not None]
    fits = [r.best_fitness for r in records if r.best_fitness is not None]
    ratios = [r.ratio for r in records if r.ratio is not None]
    best_overall = None
    if fits:
        best_overall = max(fits) if direction is Direction.MAXIMIZE else min(fits)
    return Aggregate(
        trials=len(records),
        success_count=len(successes),
        success_rate=len(successes) / len(records),
        median_best_fitness=statistics.median(fits) if fits else None,
        median_ratio=statistics.median(ratios) if ratios else None,
        median_first_hit=statistics.median(successes) if successes else None,
        mean_evaluations=statistics.fmean(r.evaluations_used for r in records),
        best_overall=best_overall,
    )


def effective_workers(config: ExperimentConfig) -> int:
    """Worker processes for ``config``: the requested count (``workers``, else
    ``QDPB_WORKERS``, else 1), capped by the trial count and the CPU count.

    The cap matters because a process pool starts all its workers at once.
    """
    requested = config.workers
    if requested is None:
        env = os.environ.get("QDPB_WORKERS", "")
        try:
            requested = max(1, int(env)) if env else 1
        except ValueError as exc:
            raise ParameterError(f"QDPB_WORKERS must be an integer, got {env!r}") from exc
    return min(requested, config.trials, os.cpu_count() or 1)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all trials and aggregate.  Deterministic in everything but wall time."""
    problem = resolve_problem(config.problem)
    init_count = config.init_count if config.init_count is not None else problem.num_cells
    if init_count != problem.num_cells and not config.allow_unfair:
        raise ParameterError(
            f"init_count {init_count} differs from the cell count {problem.num_cells}; "
            "pass allow_unfair=True if an uneven comparison is intended"
        )
    initial = None
    if config.seed_population is not None:
        # Resolved once, before any trial runs, and shared by every trial.
        initial = resolve_seed_members(config.seed_population, problem, init_count)
    workers = effective_workers(config)
    trials = range(config.trials)
    if workers > 1:
        jobs = [(config, problem.instance, problem.known_opt, initial, t) for t in trials]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = tuple(pool.map(_trial_job, jobs))
    else:
        records = tuple(_run_one_trial(config, problem, initial, t) for t in trials)
    return ExperimentReport(
        config=config,
        problem_name=problem.name,
        n=problem.n,
        num_cells=problem.num_cells,
        direction="max" if problem.direction is Direction.MAXIMIZE else "min",
        known_opt=problem.known_opt,
        records=records,
        aggregate=_aggregate(records, problem.direction),
    )


# ---------------------------------------------------------------------------
# Serialization


def _spec_to_dict(spec: ProblemSpec) -> dict:
    return {k: v for k, v in vars(spec).items() if v is not None}


def _target_to_dict(target: QualityTarget) -> dict:
    return {
        "threshold": target.threshold,
        "strict": target.strict,
        "require_feasible": target.require_feasible,
        "required_cell": target.required_cell,
    }


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {
        "problem": _spec_to_dict(config.problem),
        "algorithm": config.algorithm,
        "budget": config.budget,
        "trials": config.trials,
        "master_seed": config.master_seed,
        "init_count": config.init_count,
        "target": None if config.target is None else _target_to_dict(config.target),
        "stop_on_target": config.stop_on_target,
        "strict": config.strict,
        "seed_population": (
            list(config.seed_population)
            if isinstance(config.seed_population, tuple)
            else config.seed_population
        ),
        "allow_unfair": config.allow_unfair,
        "workers": config.workers,
        "milestone_every": config.milestone_every,
    }
    return out


def _reject_unknown(data: dict, allowed, what: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown {what} field(s): {', '.join(sorted(unknown))}")


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ValidationError(f"experiment config must be an object, got {type(data).__name__}")
    allowed = (
        "problem",
        "algorithm",
        "budget",
        "trials",
        "master_seed",
        "init_count",
        "target",
        "stop_on_target",
        "strict",
        "seed_population",
        "allow_unfair",
        "workers",
        "milestone_every",
    )
    _reject_unknown(data, allowed, "experiment config")
    for name in ("problem", "algorithm", "budget", "trials", "master_seed"):
        if name not in data:
            raise ValidationError(f"experiment config is missing {name!r}")
    spec_data = data["problem"]
    if not isinstance(spec_data, dict):
        raise ValidationError("'problem' must be an object")
    _reject_unknown(
        spec_data,
        ("kind", "n", "delta", "path", "m_elements", "density", "k", "max_weight", "instance_seed"),
        "problem spec",
    )
    if "kind" not in spec_data:
        raise ValidationError("problem spec is missing 'kind'")
    spec = ProblemSpec(**spec_data)
    target_data = data.get("target")
    target = None
    if target_data is not None:
        _reject_unknown(
            target_data, ("threshold", "strict", "require_feasible", "required_cell"), "target"
        )
        if "threshold" not in target_data:
            raise ValidationError("target is missing 'threshold'")
        target = QualityTarget(**target_data)
    seed_population = data.get("seed_population")
    if isinstance(seed_population, list):
        seed_population = tuple(seed_population)
    return ExperimentConfig(
        problem=spec,
        algorithm=data["algorithm"],
        budget=data["budget"],
        trials=data["trials"],
        master_seed=data["master_seed"],
        init_count=data.get("init_count"),
        target=target,
        stop_on_target=data.get("stop_on_target", True),
        strict=data.get("strict", True),
        seed_population=seed_population,
        allow_unfair=data.get("allow_unfair", False),
        workers=data.get("workers"),
        milestone_every=data.get("milestone_every"),
    )


def _milestone_to_dict(m: Milestone) -> dict:
    return {
        "evaluations": m.evaluations,
        "best_fitness": m.best_fitness,
        "occupied": m.occupied,
        "best_solution": m.best_solution,
    }


def _record_to_dict(r: TrialRecord) -> dict:
    return {
        "trial": r.trial,
        "seed": r.seed,
        "evaluations_used": r.evaluations_used,
        "first_hit": r.first_hit,
        "best_fitness": r.best_fitness,
        "best_solution": r.best_solution,
        "ratio": r.ratio,
        "coverage": r.coverage,
        "qd_score": r.qd_score,
        "snapshots": [_milestone_to_dict(m) for m in r.snapshots],
    }


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "format": report.format,
        "config": config_to_dict(report.config),
        "problem_name": report.problem_name,
        "n": report.n,
        "num_cells": report.num_cells,
        "direction": report.direction,
        "known_opt": report.known_opt,
        "records": [_record_to_dict(r) for r in report.records],
        "aggregate": vars(report.aggregate).copy(),
    }


_ROW_FIELDS = (
    "trial",
    "seed",
    "evaluations_used",
    "first_hit",
    "best_fitness",
    "ratio",
    "coverage",
    "qd_score",
)


def export_report(report: ExperimentReport, path, form: str = "document") -> None:
    """Write the report: ``document`` is lossless JSON, ``rows`` one CSV line
    per trial (missing first_hit becomes -1, missing numbers become nan)."""
    if form == "document":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(report), fh, indent=2)
            fh.write("\n")
    elif form == "rows":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_ROW_FIELDS)
            for r in report.records:
                writer.writerow(
                    [
                        r.trial,
                        r.seed,
                        r.evaluations_used,
                        -1 if r.first_hit is None else r.first_hit,
                        "nan" if r.best_fitness is None else r.best_fitness,
                        "nan" if r.ratio is None else repr(r.ratio),
                        r.coverage,
                        r.qd_score,
                    ]
                )
    else:
        raise ParameterError(f"unknown export form {form!r}; expected 'document' or 'rows'")


def load_report(path) -> ExperimentReport:
    """Read a document-form report back into the exact in-memory structures."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno})"
            ) from exc
    if not isinstance(data, dict) or data.get("format") != REPORT_FORMAT:
        raise ValidationError(
            f"{path}: expected a {REPORT_FORMAT!r} document, got format {data.get('format')!r}"
            if isinstance(data, dict)
            else f"{path}: expected a JSON object"
        )
    _reject_unknown(
        data,
        (
            "format",
            "config",
            "problem_name",
            "n",
            "num_cells",
            "direction",
            "known_opt",
            "records",
            "aggregate",
        ),
        "report",
    )
    try:
        records = tuple(
            TrialRecord(
                trial=r["trial"],
                seed=r["seed"],
                evaluations_used=r["evaluations_used"],
                first_hit=r["first_hit"],
                best_fitness=r["best_fitness"],
                best_solution=r["best_solution"],
                ratio=r["ratio"],
                coverage=r["coverage"],
                qd_score=r["qd_score"],
                snapshots=tuple(Milestone(**m) for m in r["snapshots"]),
            )
            for r in data["records"]
        )
        return ExperimentReport(
            config=config_from_dict(data["config"]),
            problem_name=data["problem_name"],
            n=data["n"],
            num_cells=data["num_cells"],
            direction=data["direction"],
            known_opt=data["known_opt"],
            records=records,
            aggregate=Aggregate(**data["aggregate"]),
            format=data["format"],
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: malformed report field ({exc})") from exc
