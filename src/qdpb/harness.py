"""Multi-trial experiment driver: one config in, one serializable report out.

A report is deterministic given the config: trial ``i`` always runs with seed
``master_seed + i``, and parallel execution (``workers``) only changes
wall-clock time, not a single recorded number.  Reports round-trip through
JSON exactly, and a compact CSV form carries one row per trial for
spreadsheet work.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
import statistics
from collections import deque
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from fractions import Fraction
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import Optional, Union

from .algorithms import (
    Milestone,
    QualityTarget,
    RunConfig,
    check_milestone_log,
    check_population,
    check_run,
    run_ea,
    run_map_elites,
)
from .analysis import approximation_ratio, brute_force_opt, qd_metrics
from .core import RandomSource, Solution
from .errors import ParameterError, ValidationError, require_bools, require_ints, require_numbers, require_strs
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
)
from .problems import (
    Direction,
    Fitness,
    Instance,
    MaxCoverageInstance,
    Problem,
    SetCoverInstance,
    make_problem,
)

__all__ = [
    "INSTANCE_FORMAT",
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
    "load_config",
    "config_to_dict",
    "config_from_dict",
    "read_instance",
    "write_instance",
]

INSTANCE_FORMAT = "qdpb-instance-v1"
REPORT_FORMAT = "qdpb-report-v1"


def _family(build, params):
    return build(params), params


def _random(generate, spec, k_or_max_weight):
    rng = RandomSource(spec.instance_seed)
    return generate(spec.n, spec.m_elements, spec.density, k_or_max_weight, rng), None


# kind -> (one-line description, the fields it takes, builder: spec -> (instance,
# family parameters or None)).  Builders name their generator when called, so
# a module global rebound after import (a tracing wrapper, say) is the one used.
_KIND_TABLE = {
    "example1": (
        "bipartite max-coverage family; delta is a fraction such as 1/10",
        ("n", "delta"),
        lambda spec: _family(example1_max_coverage, Example1Params(spec.n, Fraction(spec.delta))),
    ),
    "example2": (
        "umbrella-vs-singletons set cover family",
        ("n",),
        lambda spec: _family(example2_set_cover, Example2Params(spec.n)),
    ),
    "file": ("an instance file", ("path",), lambda spec: (read_instance(spec.path), None)),
    "random-max-coverage": (
        "random coverage instance",
        ("n", "m_elements", "density", "k", "instance_seed"),
        lambda spec: _random(random_max_coverage, spec, spec.k),
    ),
    "random-set-cover": (
        "random weighted cover instance",
        ("n", "m_elements", "density", "max_weight", "instance_seed"),
        lambda spec: _random(random_set_cover, spec, spec.max_weight),
    ),
}
PROBLEM_KINDS = tuple(_KIND_TABLE)

# resolve_problem enumerates unrecognized instances up to this size before a
# run (2-5 ms for coverage at n=20, k=5, m=40 and 2-3 ms for set cover at
# n=20, m=30, density 0.15, on a 2-vCPU guest, CPython 3.11); larger ones
# report no ratio column.  Use
# `qdpb oracle` to enumerate up to brute_force_opt's own guard.
_AUTO_OPT_LIMIT = 20
# A constructed family's canonical local optimum, for seed_population="local".
_LOCAL_OPTIMA = {Example1Params: example1_local_optimum, Example2Params: example2_local_optimum}


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative, JSON-friendly problem selection: a kind and exactly its fields."""

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
        require_ints(self, (), optional=("n", "m_elements", "k", "max_weight", "instance_seed"))
        require_numbers(self, (), optional=("density",))
        require_strs(self, (), optional=("path",))
        if self.delta is not None:
            try:
                if not isinstance(self.delta, str):
                    raise TypeError
                Fraction(self.delta)
            except (TypeError, ValueError, ZeroDivisionError):
                raise ParameterError(
                    f"delta must be a fraction string such as '1/10', got {self.delta!r}"
                ) from None
        takes = _KIND_TABLE[self.kind][1]
        for f in fields(self)[1:]:  # every field after kind
            if (getattr(self, f.name) is None) == (f.name in takes):
                verb = "requires" if f.name in takes else "does not take"
                raise ParameterError(f"problem kind {self.kind!r} {verb} {f.name!r}")


def resolve_problem(spec: ProblemSpec) -> Problem:
    """Build the runnable problem, filling in the optimum when it is known.

    Constructed families carry a closed-form optimum; file and random
    instances fall back to the exhaustive oracle up to ``_AUTO_OPT_LIMIT``
    variables, and to ``known_opt=None`` (no ratio reporting) above it.
    """
    inst, params = _KIND_TABLE[spec.kind][2](spec)
    if params is None:
        params = identify_instance(inst)
    if params is not None:
        return make_problem(inst, known_opt=params.opt_fitness)
    problem = make_problem(inst)
    if inst.n <= _AUTO_OPT_LIMIT:
        return replace(problem, known_opt=brute_force_opt(problem).fitness)
    return problem


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
        require_bools(self, ("stop_on_target", "strict", "allow_unfair"))
        if not isinstance(self.problem, ProblemSpec):
            raise ParameterError(f"problem must be a ProblemSpec, got {self.problem!r}")
        if self.target is not None and not isinstance(self.target, QualityTarget):
            raise ParameterError(f"target must be a QualityTarget or None, got {self.target!r}")
        if isinstance(self.seed_population, tuple) and not all(
            isinstance(member, str) for member in self.seed_population
        ):
            raise ParameterError(f"seed_population members must be strings, got {self.seed_population!r}")
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
        if self.init_count is not None:
            check_population(self.algorithm, self.init_count)
        check_milestone_log(self.budget, self.milestone_every, self.trials)


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

    def __post_init__(self) -> None:
        require_ints(self, ("trial", "seed", "evaluations_used", "coverage"), optional=("first_hit",))
        require_numbers(self, ("qd_score",), optional=("best_fitness", "ratio"))
        require_strs(self, (), optional=("best_solution",))


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

    def __post_init__(self) -> None:
        require_ints(self, ("trials", "success_count"))
        medians = ("median_best_fitness", "median_ratio", "median_first_hit")
        require_numbers(self, ("success_rate", "mean_evaluations"), optional=(*medians, "best_overall"))


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

    def __post_init__(self) -> None:
        require_ints(self, ("n", "num_cells"))
        require_numbers(self, (), optional=("known_opt",))
        require_strs(self, ("problem_name", "direction"))


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
        local_optimum = _LOCAL_OPTIMA.get(type(params))
        if local_optimum is None:
            raise ParameterError(
                "seed_population='local' needs an instance from one of the two "
                "constructed families; this one was not recognized"
            )
        return (local_optimum(params),) * init_count
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


def _trial(algorithm: str, run: RunConfig, problem: Problem, t: int) -> TrialRecord:
    """Trial ``t`` of an experiment: ``run`` with seed ``run.seed + t``."""
    seed = run.seed + t
    runner = run_map_elites if algorithm == "map-elites" else run_ea
    trace = runner(problem, replace(run, seed=seed))
    metrics = qd_metrics(trace.kept)
    ratio = None  # undefined without a positive optimum
    if problem.known_opt is not None and problem.known_opt > 0 and trace.best_fitness is not None:
        ratio = approximation_ratio(trace.best_fitness, problem.known_opt)
    best = trace.best_solution
    return TrialRecord(
        trial=t,
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


# The problem a pool worker runs its trials on, built once by _init_worker.
_worker_problem: Optional[Problem] = None


def _init_worker(instance: Instance, known_opt: Optional[Fitness]) -> None:
    # Worker-side set-up: rebuilds the problem from its picklable instance
    # (closures do not cross process boundaries).  So a worker always runs
    # the factory's probe_word: a Problem whose probe_word was swapped
    # (dataclasses.replace) runs the swapped one only when serial.
    global _worker_problem
    _worker_problem = make_problem(instance, known_opt=known_opt)


def _trial_job(args) -> TrialRecord:
    # Worker-side entry point: one trial on the worker's problem.
    algorithm, run, t = args
    return _trial(algorithm, run, _worker_problem, t)


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
    """Worker processes for ``config``: ``workers`` (default 1), capped by the
    trial count and the CPU count.

    The cap matters because a process pool starts all its workers at once.
    """
    return min(config.workers or 1, config.trials, os.cpu_count() or 1)


def run_experiment(config: ExperimentConfig, problem: Optional[Problem] = None) -> ExperimentReport:
    """Run all trials and aggregate.  Deterministic in everything but wall time.

    ``problem`` is ``config.problem`` already resolved, for a caller that
    needed it first; without it the spec is resolved here.
    """
    if problem is None:
        problem = resolve_problem(config.problem)
    init_count = config.init_count if config.init_count is not None else problem.num_cells
    if init_count != problem.num_cells and not config.allow_unfair:
        raise ParameterError(
            f"init_count {init_count} differs from the cell count {problem.num_cells}; "
            "pass allow_unfair=True if an uneven comparison is intended"
        )
    initial = None
    if config.seed_population is not None:
        initial = resolve_seed_members(config.seed_population, problem, init_count)
    # The one run configuration of every trial, checked before any trial runs
    # or any worker starts; trial t runs it with seed master_seed + t.
    run = RunConfig(
        budget=config.budget,
        init_count=init_count,
        seed=config.master_seed,
        target=config.target,
        strict=config.strict,
        stop_on_target=config.stop_on_target,
        initial_population=initial,
        milestone_every=config.milestone_every,
    )
    check_run(config.algorithm, problem, run)
    workers = effective_workers(config)
    trials = range(config.trials)
    if workers > 1:
        # Imported here: multiprocessing and what it loads would cost every
        # serial run and CLI start-up about 2 MB of memory and 30 ms.
        from concurrent.futures import ProcessPoolExecutor

        jobs = [(config.algorithm, run, t) for t in trials]
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(problem.instance, problem.known_opt)
        ) as pool:
            records = tuple(pool.map(_trial_job, jobs))
    else:
        records = tuple(_trial(config.algorithm, run, problem, t) for t in trials)
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
#
# One codec for instance files, configs and reports, driven by
# ``dataclasses.fields``: fields are written in declaration order and tuples
# become lists.  Reading refuses non-objects, unknown keys and missing
# required fields; the dataclass constructors check the values, and
# ``_milestones`` checks the snapshot rows.  Writing streams the text of
# ``json.dump(doc, fh, indent=2)`` (see ``_json_pieces``).

# Fields holding a dataclass or a tuple: name -> (the type of the value or of
# each item, whether the value is a tuple).
_NESTED = {
    "problem": (ProblemSpec, False),
    "target": (QualityTarget, False),
    "seed_population": (str, True),
    "config": (ExperimentConfig, False),
    "records": (TrialRecord, True),
    "aggregate": (Aggregate, False),
    "snapshots": (Milestone, True),
    "sets": (tuple, True),
    "weights": (int, True),
}
_INSTANCE_KINDS = {"max-coverage": MaxCoverageInstance, "set-cover": SetCoverInstance}


@functools.cache
def _layout(cls) -> tuple:
    """Field names (in order and as a set), required names and nested names of ``cls``."""
    names = tuple(f.name for f in fields(cls))
    required = frozenset(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    )
    return names, frozenset(names), required, tuple(name for name in names if name in _NESTED)


def _to_json(obj, rows: bool = False) -> dict:
    """``obj`` as JSON data.  With ``rows``, each tuple of milestones stays as
    it is, for ``_json_pieces`` to encode straight from the fields."""
    names, _, _, nested = _layout(type(obj))
    out = {name: getattr(obj, name) for name in names}
    for name in nested:
        value = out[name]
        if value is None or isinstance(value, str):
            continue
        kind, many = _NESTED[name]
        if not many:
            out[name] = _to_json(value, rows)
        elif kind in (str, int):
            out[name] = list(value)
        elif not (rows and kind is Milestone):
            out[name] = [list(item) if kind is tuple else _to_json(item, rows) for item in value]
    if isinstance(obj, ProblemSpec):
        return {name: value for name, value in out.items() if value is not None}
    return out


def _from_json(cls, data, what: str):
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be an object, got {type(data).__name__}")
    names, allowed, required, nested = _layout(cls)
    keys = data.keys()
    if not required <= keys <= allowed:
        unknown = keys - allowed
        if unknown:
            raise ValidationError(f"unknown {what} field(s): {', '.join(sorted(unknown))}")
        missing = next(name for name in names if name in required and name not in keys)
        raise ValidationError(f"{what} is missing {missing!r}")
    if nested:
        data = dict(data)
        for name in nested:
            value = data.get(name)
            if value is None and name not in required:
                continue
            kind, many = _NESTED[name]
            if not many:
                data[name] = _from_json(kind, value, name)
            elif isinstance(value, list):
                if kind in (str, int):
                    items = value
                elif kind is tuple:
                    # An entry that is not a list stays as it is, for the constructor to refuse.
                    items = (tuple(item) if isinstance(item, list) else item for item in value)
                elif kind is Milestone:
                    items = _milestones(value)
                else:
                    items = (_from_json(kind, item, name) for item in value)
                data[name] = tuple(items)
            elif not (kind is str and isinstance(value, str)):
                raise ValidationError(f"{name} must be a list, got {type(value).__name__}")
    return cls(**data)


# A snapshot row's fields in order, the types each may hold, in the same
# order (bool is not an int here), and the setter of each field's slot.
_MILESTONE_FIELDS = _layout(Milestone)[0]
_MILESTONE_TYPES = ({int}, {int, float, type(None)}, {int}, {str, type(None)})
_MILESTONE_SLOTS = tuple(getattr(Milestone, name).__set__ for name in _MILESTONE_FIELDS)


def _milestones(rows: list) -> list[Milestone]:
    """A document's snapshot rows.  Milestone checks none of its fields (a
    run builds about 1,000 per trial), so they are checked here, a column
    at a time; if any row fails, ``_milestone`` refuses the first that does,
    naming the field.  The rows are built by setting their slots, which
    costs about half of ``Milestone(**row)``: the frozen ``__init__`` calls
    ``object.__setattr__`` for each field."""
    try:
        # A row that is not an object with every field raises here.
        columns = list(zip(*map(itemgetter(*_MILESTONE_FIELDS), rows)))
    except (KeyError, TypeError):
        columns = None
    if (
        columns is None
        or set(map(len, rows)) - {len(_MILESTONE_FIELDS)}
        or not all(set(map(type, column)) <= types for column, types in zip(columns, _MILESTONE_TYPES))
    ):
        return [_milestone(row) for row in rows]
    built = list(map(object.__new__, repeat(Milestone, len(rows))))
    for set_slot, column in zip(_MILESTONE_SLOTS, columns):
        deque(map(set_slot, built, column), maxlen=0)
    return built


def _milestone(data) -> Milestone:
    """One snapshot row, checked field by field."""
    if not (isinstance(data, dict) and data.keys() == _layout(Milestone)[1]):
        _from_json(Milestone, data, "snapshots")  # refuses it, naming the field
    row = Milestone(**data)
    require_ints(row, ("evaluations", "occupied"))
    require_numbers(row, (), optional=("best_fitness",))
    require_strs(row, (), optional=("best_solution",))
    return row


def _read_text(path) -> str:
    """The UTF-8 text of the file at ``path``; a file that cannot be read or
    decoded is a ``ValidationError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot be read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 ({exc})") from exc


def _read_json(path, decode, what: str, format=None):
    """``decode(obj, what)`` of the JSON object in ``path``, whose ``format``
    field must equal ``format`` when one is given; ``obj`` is the object
    without that field.  Every error names the file."""
    try:
        data = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int of over 4,300 digits
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(data).__name__}")
    if format is not None:
        got = data.pop("format", None)
        if got != format:
            raise ValidationError(f"{path}: field 'format' must be {format!r}, got {got!r}")
    try:
        return decode(data, what)
    except (ParameterError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed {what} field ({exc})") from exc


def _read_seed_file(path) -> tuple[str, ...]:
    """The stripped non-blank lines of ``path``: a seed population's members."""
    members = tuple(line.strip() for line in _read_text(path).split("\n") if line.strip())
    if not members:
        raise ParameterError(f"seed population file {path!r} is empty")
    return members


@contextlib.contextmanager
def _writing(path, newline=None, mode="w"):
    """The file at ``path``, open to write UTF-8 text; a file that cannot be
    opened or written is a ``ValidationError`` naming it."""
    try:
        with open(path, mode, encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"{path}: cannot be written ({exc.strerror or exc})") from exc


def _check_writable(path) -> None:
    """Refuse now, as ``_writing`` would later, a path that cannot be opened
    to write; a file already there is not truncated, and none is left behind
    (nor the target that a dangling symlink would have created)."""
    real = os.path.realpath(path)
    new = not os.path.lexists(real)
    with _writing(path, mode="a"):
        pass
    if new:
        os.remove(real)


@functools.cache
def _encoder(item_separator: str):
    # indent=None keeps JSONEncoder.encode on the C encoder.
    return json.JSONEncoder(separators=(item_separator, ": "), check_circular=False).encode


def _json_pieces(value, level: int = 0):
    """The text of ``json.dumps(value, indent=2)`` in pieces, for ``value`` at
    nesting ``level``; dict keys are strings.  A tuple of dataclass instances
    with scalar fields (milestone rows) stands for a list of objects holding
    their fields, and is encoded 512 rows to a C-encoder call."""
    if not (value and isinstance(value, (dict, list, tuple))):
        yield json.dumps(value)
        return
    is_dict = isinstance(value, dict)
    inner = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level + ("}" if is_dict else "]")
    if not is_dict and is_dataclass(value[0]):
        names = _layout(type(value[0]))[0]
        row = "{" + ",".join(f"{inner}  {json.dumps(name)}: %s" for name in names) + inner + "}"
        fields_of = attrgetter(*names)
        for start in range(0, len(value), 512):
            block = value[start : start + 512]
            # The encoder escapes the newlines inside strings: those left part the fields.
            text = _encoder("\n")(list(chain.from_iterable(map(fields_of, block))))
            rows = ("," + inner).join([row] * len(block)) % tuple(text[1:-1].split("\n"))
            yield ("," if start else "[") + inner + rows
        yield close
        return
    members = value.values() if is_dict else value
    if not any(isinstance(member, (dict, list, tuple)) for member in members):
        text = _encoder("," + inner)(value)
        yield text[0] + inner + text[1:-1] + close
        return
    opening = "{" if is_dict else "["
    for key in value if is_dict else range(len(value)):
        yield opening + inner + (json.dumps(key) + ": " if is_dict else "")
        yield from _json_pieces(value[key], level + 1)
        opening = ","
    yield close


def _write_json(doc: dict, path) -> None:
    with _writing(path) as fh:
        fh.writelines(_json_pieces(doc))
        fh.write("\n")


def config_to_dict(config: ExperimentConfig) -> dict:
    return _to_json(config)


def config_from_dict(data: dict) -> ExperimentConfig:
    return _from_json(ExperimentConfig, data, "experiment config")


def load_config(path) -> ExperimentConfig:
    """Read a config file written as ``config_to_dict`` writes it."""
    return _read_json(path, functools.partial(_from_json, ExperimentConfig), "experiment config")


def report_to_dict(report: ExperimentReport, rows: bool = False) -> dict:
    """The document's JSON data, ``rows`` as for ``_to_json``, opening with
    its format."""
    return {"format": REPORT_FORMAT, **_to_json(report, rows)}


def _instance_from_json(data: dict, what: str):
    kind = data.pop("kind", None)
    if not isinstance(kind, str) or kind not in _INSTANCE_KINDS:
        raise ValidationError(f"field 'kind' must be max-coverage or set-cover, got {kind!r}")
    return _from_json(_INSTANCE_KINDS[kind], data, what)


def read_instance(path):
    """Read an instance file (``qdpb-instance-v1``) back into its instance type."""
    return _read_json(path, _instance_from_json, "instance", INSTANCE_FORMAT)


def write_instance(inst, path) -> None:
    """Write ``inst`` as a ``qdpb-instance-v1`` file: format, kind, then its fields."""
    kind = next((kind for kind, cls in _INSTANCE_KINDS.items() if type(inst) is cls), None)
    if kind is None:
        raise ParameterError(f"unsupported instance type {type(inst).__name__}")
    _write_json({"format": INSTANCE_FORMAT, "kind": kind, **_to_json(inst)}, path)


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
        _write_json(report_to_dict(report, rows=True), path)
    elif form == "rows":
        with _writing(path, newline="") as fh:
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
    return _read_json(path, functools.partial(_from_json, ExperimentReport), "report", REPORT_FORMAT)
