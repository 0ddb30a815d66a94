"""The four workloads: set-up, the timed units of one round, and output checks.

Every round of a workload repeats the same operations with the same seeds,
so every round must produce the same outputs, and the share of failed
operations is the same in every run whatever its length.  The qdpb modules
are looked up in ``sys.modules`` at call time because set-up re-imports them.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path

import reference as ref


def _qdpb(module: str):
    return sys.modules[f"qdpb.{module}"]


def _scorer(inst):
    """Fitness of a solution string on ``inst``, computed by ``reference``."""
    if hasattr(inst, "k"):  # max coverage
        return partial(ref.coverage_score, inst.sets, inst.k)
    return partial(ref.cover_score, inst.sets, inst.weights, inst.penalty, inst.m_elements)


@dataclass
class Unit:
    """Output of one timed unit: an experiment with its export, or one oracle call."""

    output: object  # ExperimentReport or OracleResult
    engine_s: float  # raw seconds inside run_experiment or brute_force_opt, by HostClock.now
    evaluations: int
    loaded: object = None  # report read back from its document
    document: Path | None = None
    rows: Path | None = None


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{label}: {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# Engine workloads: one or two experiments per round, each exported and loaded


@dataclass(frozen=True)
class Experiment:
    label: str
    kind: str  # "example1" or "example2"
    n: int
    algorithm: str
    budget: int
    trials: int
    seed_offset: int = 0
    delta: str | None = None
    seeded_trap: bool = False  # EA started at the family's local optimum
    milestone_every: int | None = None

    def config(self, seed: int):
        harness = _qdpb("harness")
        target = None
        if self.seeded_trap:
            # Any strict improvement on the trap counts as a hit; none may occur.
            target = _qdpb("algorithms").QualityTarget(
                threshold=self.trap_fitness(), strict=True, require_feasible=False
            )
        return harness.ExperimentConfig(
            problem=harness.ProblemSpec(kind=self.kind, n=self.n, delta=self.delta),
            algorithm=self.algorithm,
            budget=int(self.budget),
            trials=int(self.trials),
            master_seed=seed + self.seed_offset,
            target=target,
            seed_population="local" if self.seeded_trap else None,
            milestone_every=self.milestone_every,
            workers=1,  # QDPB_WORKERS in the environment must not start the pool
        )

    def trap_fitness(self) -> int:
        if self.kind == "example1":
            return ref.bipartite_trap_fitness(self.n, Fraction(self.delta))
        return ref.umbrella_trap_fitness(self.n)

    def record_problems(self, problem, record) -> list[str]:
        out = []
        if record.evaluations_used != self.budget:
            out.append(f"used {record.evaluations_used} of {self.budget} evaluations")
        if record.best_solution is None:
            return out + ["no feasible best solution"]
        rescored = _scorer(problem.instance)(record.best_solution)
        if rescored != record.best_fitness:
            out.append(f"best_fitness {record.best_fitness} but the set union scores {rescored}")
        if self.seeded_trap:
            trap = self.trap_fitness()
            if record.first_hit is not None or record.best_fitness != trap:
                out.append(f"left the trap: best {record.best_fitness} != {trap}, hit {record.first_hit}")
        elif self.kind == "example1":
            delta = Fraction(self.delta)
            optimum = ref.bipartite_optimum(self.n, delta)
            if record.best_fitness > optimum:
                out.append(f"best {record.best_fitness} beats the optimum {optimum}")
            if self.algorithm == "map-elites":
                full = ref.bipartite_full_qd_score(self.n, delta)
                if (record.coverage, record.qd_score, record.best_fitness) != (self.n + 1, full, optimum):
                    out.append(
                        f"archive cells/QD-score/best {record.coverage}/{record.qd_score}/"
                        f"{record.best_fitness}, expected {self.n + 1}/{full}/{optimum}"
                    )
        return out


def _rows_problems(report, path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(report.records):
        return [f"rows file has {len(rows)} rows for {len(report.records)} trials"]
    for row, r in zip(rows, report.records):
        if (int(row["trial"]), int(row["seed"]), int(row["evaluations_used"]), int(row["best_fitness"])) != (
            r.trial, r.seed, r.evaluations_used, r.best_fitness
        ):
            return [f"rows file disagrees with trial {r.trial}"]
    return []


class EngineWorkload:
    def __init__(self, name: str, experiments, quick_experiments):
        self.name = name
        self.experiments = experiments
        self.quick_experiments = quick_experiments

    def prepare(self, seed: int, quick: bool, out_dir: Path):
        """Set-up: build each config and resolve its problem (instance included)."""
        harness = _qdpb("harness")
        experiments = self.quick_experiments if quick else self.experiments
        configs = [e.config(seed) for e in experiments]
        problems = [harness.resolve_problem(c.problem) for c in configs]
        return {"experiments": experiments, "configs": configs, "problems": problems, "out": out_dir}

    def units(self, state, now):
        return [
            (lambda e=e, c=c: self._unit(e, c, state["out"], now))
            for e, c in zip(state["experiments"], state["configs"])
        ]

    @staticmethod
    def _unit(experiment: Experiment, config, out_dir: Path, now) -> Unit:
        harness = _qdpb("harness")
        start = now()
        report = harness.run_experiment(config)
        engine_s = now() - start
        document = out_dir / f"{experiment.label}.json"
        rows = out_dir / f"{experiment.label}.csv"
        harness.export_report(report, document, "document")
        harness.export_report(report, rows, "rows")
        loaded = harness.load_report(document)
        return Unit(report, engine_s, config.budget * config.trials, loaded, document, rows)

    def check_round(self, state, units, check: Check) -> None:
        for experiment, problem, unit in zip(state["experiments"], state["problems"], units):
            report = unit.output
            shared = []
            if unit.loaded != report:
                shared.append("load_report of the document differs from the report")
            shared += _rows_problems(report, unit.rows)
            for record in report.records:
                check.op(
                    f"{experiment.label} trial {record.trial}",
                    shared + experiment.record_problems(problem, record),
                )

    def check_end(self, state, check: Check) -> None:
        pass


# ---------------------------------------------------------------------------
# Oracle workload: exhaustive optimum of two random instances


@dataclass(frozen=True)
class OracleSizes:
    n: int
    cover_elements: int  # max coverage universe
    k: int
    set_elements: int  # set cover universe
    density: float = 0.15
    max_weight: int = 10


class OracleWorkload:
    name = "oracle-random20"
    sizes = OracleSizes(n=20, cover_elements=40, k=5, set_elements=30)
    quick_sizes = OracleSizes(n=12, cover_elements=24, k=4, set_elements=18)

    def prepare(self, seed: int, quick: bool, out_dir: Path):
        """Set-up: generate both instances, try to recognise them, bind the problems.

        Each unit binds its problem again, so that a traced round gets the
        traced probe; binding costs microseconds.
        """
        instances = _qdpb("instances")
        core = _qdpb("core")
        problems = _qdpb("problems")
        s = self.quick_sizes if quick else self.sizes
        built = [
            instances.random_max_coverage(s.n, s.cover_elements, s.density, s.k, core.RandomSource(seed)),
            instances.random_set_cover(s.n, s.set_elements, s.density, s.max_weight, core.RandomSource(seed)),
        ]
        for inst in built:
            if instances.identify_instance(inst) is not None:
                raise RuntimeError("a random instance was recognised as a constructed family")
            problems.make_problem(inst)
        return {"instances": built, "results": []}

    def units(self, state, now):
        return [(lambda inst=inst: self._unit(inst, now)) for inst in state["instances"]]

    @staticmethod
    def _unit(inst, now) -> Unit:
        problem = _qdpb("problems").make_problem(inst)
        start = now()
        result = _qdpb("analysis").brute_force_opt(problem)
        return Unit(result, now() - start, 1 << inst.n)

    def check_round(self, state, units, check: Check) -> None:
        # Compared in check_end, after peak memory is read: the independent
        # solver imports scipy.
        state["results"].extend(unit.output for unit in units)

    def check_end(self, state, check: Check) -> None:
        instances = state["instances"]
        expected = [
            ref.max_coverage_optimum(inst.sets, inst.k)
            if hasattr(inst, "k")
            else ref.set_cover_optimum(inst.sets, inst.weights, inst.m_elements)
            for inst in instances
        ]
        for i, result in enumerate(state["results"]):
            inst = instances[i % len(instances)]
            optimum, optima, word = expected[i % len(instances)]
            rescored = _scorer(inst)(result.solution.to_string())
            problems = []
            if (result.fitness, result.optima_count, result.solution.word) != (optimum, optima, word):
                problems.append(
                    f"oracle says optimum {result.fitness} x{result.optima_count} at {result.solution.word}, "
                    f"independent solver says {optimum} x{optima} at {word}"
                )
            if rescored != result.fitness:
                problems.append(f"the reported optimum rescores to {rescored}")
            check.op(f"oracle call {i} ({type(inst).__name__})", problems)


# ---------------------------------------------------------------------------

_TRAP_BIPARTITE = dict(kind="example1", n=60, delta="1/10", algorithm="ea", seeded_trap=True)
_TRAP_UMBRELLA = dict(kind="example2", n=12, algorithm="ea", seeded_trap=True)

WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload(
            "trap-bipartite60",
            [Experiment("trap", budget=60_000, trials=2, milestone_every=15_000, **_TRAP_BIPARTITE)],
            [Experiment("trap", budget=3_000, trials=1, milestone_every=750, **_TRAP_BIPARTITE)],
        ),
        EngineWorkload(
            "trap-umbrella12",
            [Experiment("trap", budget=100_000, trials=2, milestone_every=25_000, **_TRAP_UMBRELLA)],
            [Experiment("trap", budget=5_000, trials=1, milestone_every=1_250, **_TRAP_UMBRELLA)],
        ),
        EngineWorkload(
            "head-to-head-bipartite30",
            [
                Experiment("map-elites", "example1", 30, "map-elites", 60_000, 2, 0, "1/10"),
                Experiment("ea", "example1", 30, "ea", 60_000, 2, 1_000, "1/10"),
            ],
            [
                Experiment("map-elites", "example1", 15, "map-elites", 20_000, 1, 0, "1/5"),
                Experiment("ea", "example1", 15, "ea", 20_000, 1, 1_000, "1/5"),
            ],
        ),
        OracleWorkload(),
    )
}

