import concurrent.futures
import dataclasses
import json
import re
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qdpb import algorithms, harness, problems
from qdpb.algorithms import Milestone, QualityTarget, RunConfig
from qdpb.analysis import brute_force_opt
from qdpb.errors import ParameterError, ValidationError
from qdpb.harness import (
    Aggregate,
    ExperimentConfig,
    ExperimentReport,
    ProblemSpec,
    TrialRecord,
    config_from_dict,
    config_to_dict,
    effective_workers,
    export_report,
    load_config,
    load_report,
    read_instance,
    resolve_problem,
    resolve_seed_members,
    run_experiment,
    write_instance,
)
from qdpb.instances import Example2Params, example2_set_cover
from qdpb.problems import make_problem

from test_algorithms import copies_among, record_uniform_draws


def small_me_config(**overrides):
    base = dict(
        problem=ProblemSpec(kind="example2", n=5),
        algorithm="map-elites",
        budget=400,
        trials=3,
        master_seed=1000,
        target=QualityTarget(threshold=4),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Problem resolution


def test_resolve_fills_in_closed_form_optima():
    p1 = resolve_problem(ProblemSpec(kind="example1", n=30, delta="1/10"))
    assert (p1.name, p1.n, p1.num_cells, p1.known_opt) == ("max-coverage", 30, 31, 209)
    p2 = resolve_problem(ProblemSpec(kind="example2", n=5))
    assert (p2.name, p2.num_cells, p2.known_opt) == ("set-cover", 5, 4)


def test_resolve_random_instance_brute_forces_small_optimum():
    spec = ProblemSpec(
        kind="random-max-coverage", n=7, m_elements=9, density=0.4, k=3, instance_seed=5
    )
    problem = resolve_problem(spec)
    assert problem.known_opt == brute_force_opt(problem).fitness
    # Same spec, same instance, same optimum: resolution is deterministic.
    again = resolve_problem(spec)
    assert again.instance == problem.instance


def test_resolve_builds_an_enumerated_problem_once(monkeypatch):
    # An unrecognized instance is enumerated for its optimum; the problem
    # enumerated is the one returned, so its tables are built once.
    calls = []

    def counted(factory):
        def make(inst, known_opt=None):
            calls.append(inst.n)
            return factory(inst, known_opt)

        return make

    for name in ("make_max_coverage_problem", "make_set_cover_problem"):
        monkeypatch.setattr(problems, name, counted(getattr(problems, name)))
    for spec in (
        ProblemSpec(kind="random-max-coverage", n=13, m_elements=9, density=0.4, k=3, instance_seed=5),
        ProblemSpec(kind="random-set-cover", n=12, m_elements=9, density=0.4, max_weight=5, instance_seed=6),
    ):
        calls.clear()
        problem = resolve_problem(spec)
        assert calls == [spec.n]
        assert problem.known_opt == brute_force_opt(problem).fitness


def test_resolve_large_random_instance_has_no_optimum():
    spec = ProblemSpec(
        kind="random-max-coverage", n=25, m_elements=6, density=0.5, k=3, instance_seed=9
    )
    assert resolve_problem(spec).known_opt is None


def test_resolve_file_identifies_known_family(tmp_path):
    path = tmp_path / "star.json"
    write_instance(example2_set_cover(Example2Params(6)), path)
    problem = resolve_problem(ProblemSpec(kind="file", path=str(path)))
    assert problem.known_opt == 5


# The fields each problem kind takes, and a well-typed value for every field.
KIND_FIELDS = {
    "example1": ("n", "delta"),
    "example2": ("n",),
    "file": ("path",),
    "random-max-coverage": ("n", "m_elements", "density", "k", "instance_seed"),
    "random-set-cover": ("n", "m_elements", "density", "max_weight", "instance_seed"),
}
FIELD_VALUES = dict(
    n=6, delta="1/10", path="star.json", m_elements=7, density=0.4, k=3, max_weight=5, instance_seed=1
)


def test_problem_spec_validation():
    with pytest.raises(ParameterError, match="unknown problem kind"):
        ProblemSpec(kind="exotic")
    with pytest.raises(ParameterError, match="requires 'delta'"):
        ProblemSpec(kind="example1", n=30)
    with pytest.raises(ParameterError, match="requires 'path'"):
        ProblemSpec(kind="file")
    for delta in ("abc", "1/0", 0.1):
        with pytest.raises(ParameterError, match="delta must be a fraction string"):
            ProblemSpec(kind="example1", n=30, delta=delta)
    assert harness.PROBLEM_KINDS == tuple(KIND_FIELDS)
    # Every kind refuses each field it does not take, from the constructor
    # and from a config document alike.
    document = config_to_dict(small_me_config())
    for kind, takes in KIND_FIELDS.items():
        spec = {"kind": kind, **{name: FIELD_VALUES[name] for name in takes}}
        assert config_from_dict({**document, "problem": spec}).problem == ProblemSpec(**spec)
        for name in FIELD_VALUES.keys() - takes:
            stray = {**spec, name: FIELD_VALUES[name]}
            message = f"problem kind '{kind}' does not take '{name}'"
            with pytest.raises(ParameterError, match=message):
                ProblemSpec(**stray)
            with pytest.raises(ParameterError, match=message):
                config_from_dict({**document, "problem": stray})


@pytest.mark.parametrize(
    "kind, generator",
    [
        ("example1", "example1_max_coverage"),
        ("example2", "example2_set_cover"),
        ("random-max-coverage", "random_max_coverage"),
        ("random-set-cover", "random_set_cover"),
    ],
)
def test_builders_call_the_generator_bound_in_harness(kind, generator, monkeypatch):
    # A tracer times instance building by rebinding these names in harness,
    # so a builder must look its generator up when it runs.
    calls = 0
    original = getattr(harness, generator)

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(harness, generator, counted)
    spec = {name: FIELD_VALUES[name] for name in KIND_FIELDS[kind]}
    if kind == "example1":
        spec.update(n=9, delta="1/3")  # n=6 is not admissible at delta 1/10
    resolve_problem(ProblemSpec(kind=kind, **spec))
    assert calls == 1


# ---------------------------------------------------------------------------
# Config validation and seed members


def test_config_rejects_bad_settings():
    with pytest.raises(ParameterError, match="unknown algorithm"):
        small_me_config(algorithm="hillclimber")
    with pytest.raises(ParameterError, match="trials"):
        small_me_config(trials=0)
    with pytest.raises(ParameterError, match="seed_population"):
        small_me_config(seed_population="local")
    with pytest.raises(ParameterError, match="master_seed must be non-negative, got -1"):
        small_me_config(master_seed=-1)
    with pytest.raises(ParameterError, match="workers must be positive, got 0"):
        small_me_config(workers=0)
    with pytest.raises(ParameterError, match="problem must be a ProblemSpec, got 'x'"):
        small_me_config(problem="x")
    with pytest.raises(ParameterError, match="target must be a QualityTarget or None, got 5"):
        small_me_config(algorithm="ea", budget=50, trials=1, master_seed=1, target=5)


SPEC_NUMBERS = ("n", "m_elements", "k", "max_weight", "instance_seed", "density")
TARGET_NUMBERS = ("required_cell", "threshold")
FLOAT_NUMBERS = ("density", "threshold")  # an int or a float; never a bool or a string
# Bool fields, a "target." or "run." prefix naming the QualityTarget or RunConfig ones.
BOOLS = (
    "stop_on_target", "strict", "allow_unfair", "target.strict", "target.require_feasible",
    "run.strict", "run.stop_on_target",
)


def config_part_with(name, value):
    """The config object that holds ``name``, built with ``value`` for it."""
    if name in SPEC_NUMBERS:
        spec = dict(kind="random-max-coverage", n=6, m_elements=7, density=0.4, k=3, instance_seed=1)
        return ProblemSpec(**{**spec, name: value})
    if name in TARGET_NUMBERS:
        return QualityTarget(**{"threshold": 4, name: value})
    if name.startswith("target."):
        return QualityTarget(**{"threshold": 4, name[7:]: value})
    if name.startswith("run."):
        return RunConfig(**{"budget": 100, "init_count": 5, "seed": 1, name[4:]: value})
    return small_me_config(**{name: value})


@pytest.mark.parametrize(
    "name",
    ["budget", "trials", "master_seed", "init_count", "workers", "milestone_every", *SPEC_NUMBERS, *TARGET_NUMBERS, *BOOLS],
)
@pytest.mark.parametrize("value", [100.5, "100", True])
def test_config_numbers_must_be_ints(name, value):
    field = name.rpartition(".")[2]
    if (name in FLOAT_NUMBERS and isinstance(value, float)) or (name in BOOLS and value is True):
        assert getattr(config_part_with(name, value), field) == value
        return
    what = "a number" if name in FLOAT_NUMBERS else "true or false" if name in BOOLS else "an integer"
    with pytest.raises(ParameterError, match=f"{field} must be {what}"):
        config_part_with(name, value)


@pytest.mark.parametrize("name", ["budget", "init_count", "milestone_every"])
def test_run_config_numbers_must_be_ints(name):
    settings = dict(budget=100, init_count=5, seed=1)
    with pytest.raises(ParameterError, match=f"{name} must be an integer"):
        RunConfig(**{**settings, name: 100.5})


def test_fairness_guard():
    config = small_me_config(init_count=3)
    with pytest.raises(ParameterError, match="allow_unfair"):
        run_experiment(config)
    report = run_experiment(small_me_config(init_count=3, allow_unfair=True, trials=1))
    assert report.records[0].evaluations_used <= 400


def test_resolve_seed_members_forms():
    problem = resolve_problem(ProblemSpec(kind="example2", n=5))
    local = resolve_seed_members("local", problem, 4)
    assert len(local) == 4
    assert all(s.to_string() == "10000" for s in local)
    single = resolve_seed_members("01110", problem, 3)
    assert [s.to_string() for s in single] == ["01110"] * 3
    one = resolve_seed_members(("01110",), problem, 3)
    assert [s.to_string() for s in one] == ["01110"] * 3
    explicit = resolve_seed_members(("10000", "01111"), problem, 2)
    assert explicit[1].to_string() == "01111"
    with pytest.raises(ParameterError, match="expected 1 or 4"):
        resolve_seed_members(("10000", "01111"), problem, 4)
    with pytest.raises(ParameterError, match="bitstring"):
        resolve_seed_members("nearby", problem, 4)


def test_local_seed_requires_recognized_family():
    spec = ProblemSpec(
        kind="random-set-cover", n=6, m_elements=7, density=0.4, max_weight=5, instance_seed=3
    )
    problem = resolve_problem(spec)
    with pytest.raises(ParameterError, match="not recognized"):
        resolve_seed_members("local", problem, 6)


# ---------------------------------------------------------------------------
# Running experiments


def test_reports_are_deterministic_and_seeded_per_trial():
    config = small_me_config()
    a = run_experiment(config)
    b = run_experiment(config)
    assert a == b
    assert [r.seed for r in a.records] == [1000, 1001, 1002]
    assert a.aggregate.trials == 3
    shifted = run_experiment(small_me_config(master_seed=2000))
    assert shifted != a


def test_workers_do_not_change_results():
    config = small_me_config(trials=4)
    serial = run_experiment(config)
    parallel = run_experiment(small_me_config(trials=4, workers=2))
    assert serial.records == parallel.records
    assert serial.aggregate == parallel.aggregate
    # Seed members are resolved once and shipped to the workers.
    seeded = small_me_config(algorithm="ea", trials=2, seed_population="local", target=None)
    assert run_experiment(seeded).records == run_experiment(
        small_me_config(algorithm="ea", trials=2, seed_population="local", target=None, workers=2)
    ).records


def test_each_worker_builds_the_problem_once(monkeypatch):
    class InlinePool:
        # A process pool run in this process: it runs the initializer once
        # per worker, as ProcessPoolExecutor does, then maps the jobs.
        def __init__(self, max_workers, initializer, initargs):
            for _ in range(max_workers):
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    builds = 0

    def counted_make_problem(*args, **kwargs):
        nonlocal builds
        builds += 1
        return make_problem(*args, **kwargs)

    config = small_me_config(trials=4, workers=2)
    problem = resolve_problem(config.problem)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "make_problem", counted_make_problem)
    monkeypatch.setattr(harness, "_worker_problem", None)
    report = run_experiment(config, problem)
    assert builds == 2  # one per worker, not one per trial
    assert report.records == run_experiment(dataclasses.replace(config, workers=1)).records


@pytest.fixture
def no_pool(monkeypatch):
    """Two CPUs, and a process pool that fails the test if it is started."""

    def started(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", started)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"budget": 4}, "budget 4 cannot be smaller than init_count 5"),
        ({"milestone_every": 0}, "milestone_every must be positive, got 0"),
        ({"target": QualityTarget(threshold=4, required_cell=999)}, "target cell 999 outside 0..4"),
        ({"algorithm": "ea", "seed_population": "0101"}, "seed member has 4 variables, problem has 5"),
    ],
)
def test_bad_run_settings_are_refused_before_any_worker_starts(setting, message, no_pool):
    with pytest.raises(ParameterError, match=message):
        run_experiment(small_me_config(workers=2, trials=2, **setting))


def test_a_problem_workers_cannot_rebuild_is_refused_before_any_worker_starts(no_pool):
    problem = dataclasses.replace(make_problem(example2_set_cover(Example2Params(5))), instance=None)
    with pytest.raises(ParameterError, match="has no instance for 2 pool workers to rebuild"):
        run_experiment(small_me_config(workers=2, trials=2), problem)
    assert run_experiment(small_me_config(workers=1, trials=2), problem).aggregate.trials == 2


def test_milestone_rows_are_bounded_over_all_trials():
    # One trial logging exactly the limit runs; two of them are refused.
    limit = algorithms._MILESTONE_ROW_LIMIT
    assert RunConfig(budget=limit, init_count=5, seed=0, milestone_every=1).milestone_interval == 1
    small_me_config(budget=limit, milestone_every=1, trials=1)
    with pytest.raises(ParameterError, match=f"2 trial.s. of budget {limit} .* about {2 * limit:,} rows"):
        small_me_config(budget=limit, milestone_every=1, trials=2)
    with pytest.raises(ParameterError, match="over the"):
        RunConfig(budget=limit + 1, init_count=5, seed=0, milestone_every=1)
    # c6's settings: 50 trials of 26 rows.
    small_me_config(budget=260_000, milestone_every=10_000, trials=50)


def test_ea_populations_are_bounded_before_any_run_or_worker_starts(no_pool):
    limit = algorithms._POPULATION_LIMIT
    message = f"population of {limit + 1:,} members is over the {limit:,} member limit"
    unfair = dict(algorithm="ea", allow_unfair=True, budget=limit + 1)
    small_me_config(**unfair, init_count=limit)
    with pytest.raises(ParameterError, match=message):
        small_me_config(**unfair, init_count=limit + 1)
    # The archive keeps one member per cell, however many it draws first.
    small_me_config(**{**unfair, "algorithm": "map-elites"}, init_count=limit + 1)
    problem = resolve_problem(ProblemSpec(kind="example2", n=5))

    def no_probe(word):
        raise AssertionError("a member was probed")

    unprobed = dataclasses.replace(problem, probe_word=no_probe)
    with pytest.raises(ParameterError, match=message):
        algorithms.run_ea(unprobed, RunConfig(budget=limit + 1, init_count=limit + 1, seed=0))
    # The default count, one member per cell, on a problem with more cells than the limit.
    wide = dataclasses.replace(problem, num_cells=limit + 1)
    with pytest.raises(ParameterError, match=message):
        run_experiment(small_me_config(**unfair, workers=2, trials=2), wide)


def test_effective_workers_env_fallback(monkeypatch):
    # There is no environment fallback: QDPB_WORKERS, whatever it holds, is
    # neither read nor validated; only the config's workers count.
    config = small_me_config()
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    monkeypatch.delenv("QDPB_WORKERS", raising=False)
    assert effective_workers(config) == 1
    for value in ("3", "lots", "0", "-4"):
        monkeypatch.setenv("QDPB_WORKERS", value)
        assert effective_workers(config) == 1
        assert effective_workers(small_me_config(workers=2)) == 2


def test_effective_workers_is_bounded_by_trials_and_cpus(monkeypatch):
    # Computed only: no pool is started.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    assert effective_workers(small_me_config(trials=10)) == 1
    assert effective_workers(small_me_config(workers=5000, trials=2)) == 2
    assert effective_workers(small_me_config(workers=5000, trials=10)) == 4
    assert effective_workers(small_me_config(workers=3, trials=10)) == 3
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert effective_workers(small_me_config(workers=5000, trials=10)) == 1


def test_seed_members_are_resolved_once_per_experiment(monkeypatch):
    calls = 0
    identify = harness.identify_instance

    def counted(inst):
        nonlocal calls
        calls += 1
        return identify(inst)

    monkeypatch.setattr(harness, "identify_instance", counted)
    config = ExperimentConfig(
        problem=ProblemSpec(kind="example2", n=5),
        algorithm="ea",
        budget=200,
        trials=3,
        master_seed=1,
        seed_population="local",
        workers=1,
    )
    report = run_experiment(config)
    assert calls == 1
    assert len(report.records) == 3


@pytest.mark.parametrize("algorithm", ["map-elites", "ea"])
def test_nothing_is_probed_again_after_a_run(algorithm, monkeypatch):
    # Every evaluation but a copy probes once, and the metrics after the run
    # read the kept probe results instead of probing again.
    spec = ProblemSpec(kind="example1", n=9, delta="1/3")
    base = resolve_problem(spec)
    probes = 0

    def probe_word(word):
        nonlocal probes
        probes += 1
        return base.probe_word(word)

    draws = record_uniform_draws(monkeypatch)
    config = ExperimentConfig(
        problem=spec, algorithm=algorithm, budget=500, trials=3, master_seed=6, workers=1
    )
    report = run_experiment(config, dataclasses.replace(base, probe_word=probe_word))
    copies = copies_among(draws, base.n)
    assert [r.evaluations_used for r in report.records] == [500] * 3
    assert copies > 0
    assert probes == config.budget * config.trials - copies


def test_small_map_elites_experiment_succeeds():
    report = run_experiment(small_me_config(trials=5))
    assert report.aggregate.success_count == 5  # n=5 star instance is easy
    assert report.aggregate.median_ratio == 1.0
    for record in report.records:
        assert record.first_hit is not None
        assert record.best_fitness == 4
        assert record.evaluations_used <= 400
        assert record.snapshots[-1].evaluations == record.evaluations_used


def test_seeded_ea_stays_trapped():
    config = ExperimentConfig(
        problem=ProblemSpec(kind="example2", n=8),
        algorithm="ea",
        budget=3000,
        trials=3,
        master_seed=77,
        init_count=8,
        target=QualityTarget(threshold=256, strict=True, require_feasible=False),
        seed_population="local",
    )
    report = run_experiment(config)
    assert report.aggregate.success_count == 0
    for record in report.records:
        assert record.first_hit is None
        assert record.best_fitness == 256  # umbrella-only cover, never improved
        assert record.evaluations_used == 3000
        assert record.coverage == 1  # every member still sits in the same cell


def test_ratio_is_omitted_without_a_known_optimum():
    config = ExperimentConfig(
        problem=ProblemSpec(
            kind="random-max-coverage", n=25, m_elements=6, density=0.5, k=3, instance_seed=9
        ),
        algorithm="map-elites",
        budget=100,
        trials=2,
        master_seed=4,
    )
    report = run_experiment(config)
    assert report.known_opt is None
    assert all(r.ratio is None for r in report.records)
    assert report.aggregate.median_ratio is None
    assert report.aggregate.success_count == 0  # no target set


# ---------------------------------------------------------------------------
# Serialization


def test_config_dict_round_trip():
    config = small_me_config(
        workers=2,
        milestone_every=50,
    )
    assert config_from_dict(config_to_dict(config)) == config
    seeded = ExperimentConfig(
        problem=ProblemSpec(kind="example2", n=6),
        algorithm="ea",
        budget=500,
        trials=2,
        master_seed=3,
        seed_population=("100000", "011111"),
        init_count=2,
        allow_unfair=True,
    )
    assert config_from_dict(config_to_dict(seeded)) == seeded


def test_config_from_dict_rejects_unknowns():
    data = config_to_dict(small_me_config())
    data["typo"] = 1
    with pytest.raises(ValidationError, match="typo"):
        config_from_dict(data)
    del data["typo"]
    del data["budget"]
    with pytest.raises(ValidationError, match="'budget'"):
        config_from_dict(data)
    data["budget"] = 400
    data["problem"]["flavor"] = "spicy"
    with pytest.raises(ValidationError, match="flavor"):
        config_from_dict(data)


def test_document_round_trip_is_lossless(tmp_path):
    report = run_experiment(small_me_config())
    path = tmp_path / "report.json"
    export_report(report, path, form="document")
    assert load_report(path) == report


def test_rows_export(tmp_path):
    config = ExperimentConfig(
        problem=ProblemSpec(kind="example2", n=8),
        algorithm="ea",
        budget=500,
        trials=2,
        master_seed=77,
        init_count=8,
        target=QualityTarget(threshold=256, strict=True, require_feasible=False),
        seed_population="local",
    )
    path = tmp_path / "rows.csv"
    export_report(run_experiment(config), path, form="rows")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trial,seed,evaluations_used,first_hit,best_fitness,ratio,coverage,qd_score"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "77"
    assert first[3] == "-1"  # never hit the target
    assert first[5] != "nan"  # the optimum is known, so a ratio is present
    with pytest.raises(ParameterError, match="unknown export form"):
        export_report(run_experiment(small_me_config(trials=1)), path, form="yaml")


def test_load_report_rejects_malformed_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    with pytest.raises(ValidationError, match="line 1"):
        load_report(path)
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValidationError, match="qdpb-report-v1"):
        load_report(path)
    path.write_text("[]")
    with pytest.raises(ValidationError, match="expected a JSON object, got list"):
        load_report(path)
    good = run_experiment(small_me_config(trials=1))
    export_report(good, path, form="document")
    data = json.loads(path.read_text())
    record = data["records"][0]
    row = record["snapshots"][0]
    partial_row = {k: v for k, v in row.items() if k != "occupied"}
    for records, detail in (
        ([{k: v for k, v in record.items() if k != "seed"}], "missing 'seed'"),
        ([{**record, "extra": 1}], "extra"),
        ([5], "must be an object"),
        ([{**record, "snapshots": [partial_row]}], "snapshots is missing 'occupied'"),
        ([{**record, "snapshots": [{**row, "extra": 1}]}], "unknown snapshots field.s.: extra"),
        ([{**record, "snapshots": [5]}], "snapshots must be an object, got int"),
    ):
        path.write_text(json.dumps({**data, "records": records}))
        with pytest.raises(ValidationError, match=f"malformed report field .*{detail}"):
            load_report(path)


@pytest.mark.parametrize(
    "where, field, value",
    [
        ("snapshot", "evaluations", 2.5),
        ("snapshot", "occupied", "x"),
        ("snapshot", "best_solution", 5),
        ("record", "best_solution", 5),
        ("record", "seed", float("nan")),
        ("record", "trial", True),
        ("aggregate", "trials", "1"),
        ("report", "n", 2.0),
    ],
)
def test_load_report_refuses_mistyped_values(where, field, value, tmp_path):
    path = tmp_path / "report.json"
    export_report(run_experiment(small_me_config(trials=1)), path, form="document")
    data = json.loads(path.read_text())
    record = data["records"][0]
    part = {"snapshot": record["snapshots"][-1], "record": record, "aggregate": data["aggregate"]}
    part.get(where, data)[field] = value
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match=f"malformed report field .*{field} must be"):
        load_report(path)


def test_an_integer_of_over_4300_digits_is_refused_naming_the_file(tmp_path):
    # json.loads raises a plain ValueError for it, not a JSONDecodeError.
    path = tmp_path / "big.json"
    path.write_text('{"format": "qdpb-report-v1", "n": 1' + "0" * 4300 + "}")
    for reader in (read_instance, load_config, load_report):
        with pytest.raises(ValidationError, match=f"{re.escape(str(path))}: not valid JSON .*Exceeds the limit"):
            reader(path)


# Text with every character class json escapes differently, and '%', which
# the milestone row template must pass through.
_TEXT = st.text(st.sampled_from('%\x1f\n"\\aé€😀\ud800\udfff') | st.characters(), max_size=6)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**80).flatmap(lambda i: st.sampled_from([i, -i]))
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | _TEXT
)
_JSON = st.recursive(
    _SCALARS,
    lambda items: st.lists(items, max_size=3)
    | st.lists(items, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, items, max_size=3),
    max_leaves=20,
)


@given(_JSON)
@example({})
@example(())
@example({"a": "a", "b": [()], "c": {"%s": [1]}})
@example([[{}], ["\ud800"]])
def test_the_document_writer_writes_the_text_of_json_dumps(value):
    assert "".join(harness._json_pieces(value)) == json.dumps(value, indent=2)


def report_with_rows(count: int) -> ExperimentReport:
    """A one-trial report whose milestone log has ``count`` rows, built directly."""
    rows = tuple(
        Milestone(i, None, 0, None) if i < 3 else Milestone(i, i // 3, i % 31, "01" * 15) for i in range(count)
    )
    record = TrialRecord(0, 1000, count, None, count // 3, "01" * 15, None, 31, 180, rows)
    aggregate = Aggregate(1, 0, 0.0, count // 3, None, None, float(count), count // 3)
    return ExperimentReport(small_me_config(trials=1), "example2", 5, 6, "min", 2, (record,), aggregate)


def test_milestone_rows_are_written_as_json_dumps_writes_their_dicts(tmp_path):
    # 1,300 rows: the writer's blocks of 512, the last one partial.
    report = report_with_rows(1_300)
    path = tmp_path / "report.json"
    export_report(report, path, form="document")
    assert path.read_text() == json.dumps(harness.report_to_dict(report), indent=2) + "\n"
    assert load_report(path) == report


def test_exporting_a_long_milestone_log_takes_memory_independent_of_it(tmp_path):
    report = report_with_rows(100_001)
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        export_report(report, path, form="document")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 16_000_000
    assert peak < 2_000_000, f"exporting 100,001 milestone rows peaked at {peak} bytes"


def test_documents_and_instance_files_never_take_json_pure_python_encoder(tmp_path, monkeypatch):
    report = run_experiment(small_me_config(trials=2))

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    export_report(report, tmp_path / "report.json", form="document")
    instance = example2_set_cover(Example2Params(5))
    write_instance(instance, tmp_path / "instance.json")
    assert load_report(tmp_path / "report.json") == report
    assert read_instance(tmp_path / "instance.json") == instance
