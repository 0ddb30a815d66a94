"""Frozen traces: sha256 digests of full runs, pinned from a known-good build.

The determinism tests elsewhere compare the code with itself, so a change to
the draw order, the mutation law or the evaluation count would still pass
them.  These digests were computed once and are compared against fresh runs:
any change to a single draw, evaluation, milestone or kept member changes a
digest.  A digest may only be updated by a change that means to alter traces.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from qdpb.algorithms import QualityTarget, RunConfig, RunTrace, run_ea, run_map_elites
from qdpb.analysis import brute_force_opt
from qdpb.cli import main
from qdpb.core import RandomSource
from qdpb.harness import (
    ExperimentConfig,
    ProblemSpec,
    config_to_dict,
    export_report,
    report_to_dict,
    run_experiment,
)
from qdpb.instances import (
    Example1Params,
    Example2Params,
    example1_local_optimum,
    example1_max_coverage,
    example2_local_optimum,
    example2_set_cover,
    random_max_coverage,
    random_set_cover,
)
from qdpb.problems import make_problem


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def trace_digest(trace: RunTrace) -> str:
    """Digest of everything a run produced: counts, milestones and what it kept."""
    best = trace.best_solution
    data = {
        "algorithm": trace.algorithm,
        "evaluations_used": trace.evaluations_used,
        "first_hit": trace.first_hit,
        "best_fitness": trace.best_fitness,
        "best_solution": None if best is None else best.to_string(),
        "milestones": [
            [m.evaluations, m.best_fitness, m.occupied, m.best_solution] for m in trace.milestones
        ],
    }
    if trace.archive is not None:
        archive = trace.archive
        data["archive"] = {
            "solutions": [None if s is None else s.to_string() for s in archive.solutions],
            "fitnesses": archive.fitnesses,
            "occupied": archive.occupied,
        }
    if trace.population is not None:
        population = trace.population
        data["population"] = {
            "solutions": [s.to_string() for s in population.solutions],
            "fitnesses": population.fitnesses,
        }
    return digest(data)


def example1(n=30):
    params = Example1Params(n, Fraction(1, 10))
    return make_problem(example1_max_coverage(params), known_opt=params.opt_fitness), params


def example2(n=12):
    params = Example2Params(n)
    return make_problem(example2_set_cover(params), known_opt=params.opt_fitness), params


def random_coverage():
    return make_problem(random_max_coverage(20, 40, 0.15, 5, RandomSource(11))), None


def random_cover():
    return make_problem(random_set_cover(20, 30, 0.15, 9, RandomSource(12))), None


def trap_start(factory):
    """The seeded trap population of ``factory``'s problem: its local optimum, once per cell."""
    problem, params = factory()
    local = example1_local_optimum if factory is example1 else example2_local_optimum
    return (local(params),) * problem.num_cells


# case id -> (problem factory, engine, seed, seeded trap start, expected digest)
CASES = {
    "example1-map-elites": (
        example1, "map-elites", 1, False,
        "dd4ee4fa07b6639a26fd4b91bb26490a2d5c4ee4567790c35103b0647bdc9036",
    ),
    "example1-ea": (
        example1, "ea", 2, False,
        "fa4acf153ab7dec2b8e04ffa3042a3d60c50ce7e156ffa45a30b4bd6130ecb52",
    ),
    "example1-ea-trap": (
        example1, "ea", 3, True,
        "a46b70d0b0dfc59eb26efd6dcbc44c31c11c821e08c9a3a1a1605e85ddfd1b3d",
    ),
    "example2-map-elites": (
        example2, "map-elites", 4, False,
        "3a98742ab6b2f107cf28a1af70a68b9db9d66b89d6dcb27942e8b510af2c9674",
    ),
    "example2-ea": (
        example2, "ea", 5, False,
        "02947aebdde14f65419b6d964641671b2b64eeaf12e85c0b52dde165453026e5",
    ),
    "example2-ea-trap": (
        example2, "ea", 6, True,
        "24c8744fcda682b0eccc4bd324dccbfc70ff50af42a81fde648b6ad018c7671b",
    ),
    "random-coverage-map-elites": (
        random_coverage, "map-elites", 7, False,
        "993e276c7f92cb9e3182401a5fb363c5eba192db416759d9aaa6bc1c6b7990f3",
    ),
    "random-coverage-ea": (
        random_coverage, "ea", 8, False,
        "601b8b3edcbc64becec99fba73792c535e5f3759ea839a2d8bc79ab4363ecaa1",
    ),
    "random-cover-map-elites": (
        random_cover, "map-elites", 9, False,
        "89fa7ee7031d26f93d325b7b814119668e4975493d79b1db17d8a2e679b99423",
    ),
    "random-cover-ea": (
        random_cover, "ea", 10, False,
        "e9b1d1ae8193bc57d8c23bb8f43c3db8222407327a3a9f908ea141f85fa0ab2a",
    ),
}


def run_case(case_id: str) -> RunTrace:
    factory, engine, seed, trap, _ = CASES[case_id]
    problem, _params = factory()
    target = None
    if problem.known_opt is not None:
        # Hits are recorded but the full budget is spent, so the trace covers it all.
        target = QualityTarget(threshold=problem.known_opt)
    config = RunConfig(
        budget=20_000,
        init_count=problem.num_cells,
        seed=seed,
        target=target,
        stop_on_target=False,
        initial_population=trap_start(factory) if trap else None,
    )
    runner = run_map_elites if engine == "map-elites" else run_ea
    return runner(problem, config)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_run_trace_is_frozen(case_id):
    assert trace_digest(run_case(case_id)) == CASES[case_id][-1]


# Runs through the branches the CASES above leave out: strict and
# infeasible-counting targets, a required cell, stopping on a hit in mid-run
# and among the init members, milestone intervals that do not divide the
# budget and non-strict keep rules, for both engines in both directions.
# case id -> (problem factory, engine, RunConfig fields besides budget and
#             target, target fields, (first_hit, evaluations_used), digest)
BRANCH_CASES = {
    # The trap workloads' target: any strict improvement on the trap is a
    # hit.  Copies equal the trap fitness and must not count, so these traces
    # equal those of the two trap CASES.
    "example1-ea-trap-strict": (
        example1, "ea", dict(seed=3, initial_population="trap"),
        dict(threshold=121, strict=True, require_feasible=False),
        (None, 20_000),
        "a46b70d0b0dfc59eb26efd6dcbc44c31c11c821e08c9a3a1a1605e85ddfd1b3d",
    ),
    "example2-ea-trap-strict": (
        example2, "ea", dict(seed=6, initial_population="trap"),
        dict(threshold=4096, strict=True, require_feasible=False),
        (None, 20_000),
        "24c8744fcda682b0eccc4bd324dccbfc70ff50af42a81fde648b6ad018c7671b",
    ),
    # The first hit at 175 exactly comes at 543; the strict hit much later.
    "example1-map-elites-strict": (
        example1, "map-elites", dict(seed=42, stop_on_target=False),
        dict(threshold=175, strict=True),
        (3032, 20_000),
        "146e76281544319088c38409cc6168f2d78fab57909ea1cd635be7a1d4a41ef9",
    ),
    # An infeasible offspring hits at 23; the first feasible hit is at 82.
    "random-cover-ea-infeasible": (
        random_cover, "ea", dict(seed=43, init_count=4, stop_on_target=False, milestone_every=37, strict=False),
        dict(threshold=300, require_feasible=False),
        (23, 20_000),
        "aa2501c69a33153f116b915fcda795072c3d6fd53d8f230d5492738ae88ff54e",
    ),
    # Without the cell the target is hit at 2.  The hit scores 17 exactly
    # and is no new best: only the threshold comparison can catch it.
    "random-coverage-map-elites-cell": (
        random_coverage, "map-elites", dict(seed=44, stop_on_target=False, milestone_every=300, strict=False),
        dict(threshold=17, required_cell=2),
        (1055, 20_000),
        "2395eae617ce250ec1cc5a9824e824f36d883d4b4c5bc878a96410a68e3ebf12",
    ),
    "example1-ea-stop": (
        example1, "ea", dict(seed=45, milestone_every=333),
        dict(threshold=180),
        (1259, 1259),
        "ba00cb0bfb5d3d503146c835ae31c5d4e845ada112728b8a830f24867b3c71db",
    ),
    "example2-map-elites-stop": (
        example2, "map-elites", dict(seed=46, strict=False),
        dict(threshold=4096, require_feasible=False),
        (534, 534),
        "a87783f017e3d82a2fc4f5665b20c5783f05abccf2ccc85a3c93350ce6b7a9e2",
    ),
    # A hit among the init members ends the run before its first step.
    "example2-map-elites-stop-init": (
        example2, "map-elites", dict(seed=46),
        dict(threshold=30_000, require_feasible=False),
        (4, 12),
        "2bc3e6d02d8d95141843a9df9f2ef82103acec210ef4e9535ccd1ac907bc9245",
    ),
    "example1-ea-stop-init": (
        example1, "ea", dict(seed=55),
        dict(threshold=128),
        (15, 31),
        "2dc631270f8e721a807ca32f5cecd18fe4665bd20b8c16ae6c8e3ce9ef94dbfe",
    ),
}


def run_branch_case(case_id: str) -> RunTrace:
    factory, engine, fields, target, _facts, _digest = BRANCH_CASES[case_id]
    problem, _params = factory()
    fields = dict(fields)
    if fields.get("initial_population") == "trap":
        fields["initial_population"] = trap_start(factory)
    fields.setdefault("init_count", problem.num_cells)
    config = RunConfig(budget=20_000, target=QualityTarget(**target), **fields)
    runner = run_map_elites if engine == "map-elites" else run_ea
    return runner(problem, config)


@pytest.mark.parametrize("case_id", sorted(BRANCH_CASES))
def test_branch_trace_is_frozen(case_id):
    trace = run_branch_case(case_id)
    *_, facts, expected = BRANCH_CASES[case_id]
    assert (trace.first_hit, trace.evaluations_used) == facts
    assert trace_digest(trace) == expected


# On a trap nothing is kept or improved, so the trace bytes above are the
# same for every seed and pin no draw.  The run's stream is the population's
# ``rng``: its final state pins every draw a trap run made, in order.
# case id -> sha256 of repr(trace.population.rng.getstate())
TRAP_STATES = {
    "example1-ea-trap": "ce2c38f83b3fa9914971962a9ab828a9e0f176adcafcd215d5b4bce0ad1bb63f",
    "example2-ea-trap": "a769c7da0f2fc38ab32188a1dbddc5c82f944d43465efc917ab8db64eb3d710c",
    "example1-ea-trap-strict": "ce2c38f83b3fa9914971962a9ab828a9e0f176adcafcd215d5b4bce0ad1bb63f",
    "example2-ea-trap-strict": "a769c7da0f2fc38ab32188a1dbddc5c82f944d43465efc917ab8db64eb3d710c",
}


@pytest.mark.parametrize("case_id", sorted(TRAP_STATES))
def test_trap_run_draws_are_frozen(case_id):
    trace = run_case(case_id) if case_id in CASES else run_branch_case(case_id)
    state = repr(trace.population.rng.getstate()).encode()
    assert hashlib.sha256(state).hexdigest() == TRAP_STATES[case_id]


def test_trial_records_are_frozen():
    config = ExperimentConfig(
        problem=ProblemSpec(kind="example1", n=30, delta="1/10"),
        algorithm="ea",
        budget=5_000,
        trials=2,
        master_seed=21,
        target=QualityTarget(threshold=Example1Params(30, Fraction(1, 10)).opt_fitness),
        stop_on_target=False,
        seed_population="local",
        workers=1,
    )
    records = report_to_dict(run_experiment(config))["records"]
    assert digest(records) == "036b0f4e1c53db40fc1a640b547ba75a85aafdb1f16dc49326ff5cd6a5db3fad"


@pytest.mark.parametrize(
    "problem, expected",
    [
        (make_problem(random_max_coverage(16, 30, 0.2, 4, RandomSource(31))), ("1000000101000010", 25, 1)),
        (make_problem(random_set_cover(16, 24, 0.2, 9, RandomSource(32))), ("0001000001100111", 26, 2)),
    ],
    ids=["max-coverage", "set-cover"],
)
def test_brute_force_results_are_frozen(problem, expected):
    result = brute_force_opt(problem)
    assert (result.solution.to_string(), result.fitness, result.optima_count) == expected


# Exported artifacts: the bytes written by ``export_report`` in both forms and
# the JSON text of ``config_to_dict``.  Together the configs cover a spec with
# unset fields, a target with a required cell, both seed_population forms,
# stop_on_target=False, strict=False, workers and milestone_every.
# case id -> (config, document digest, rows digest, config digest)
ARTIFACTS = {
    "random-coverage-map-elites": (
        ExperimentConfig(
            problem=ProblemSpec(
                kind="random-max-coverage", n=12, m_elements=20, density=0.25, k=4, instance_seed=41
            ),
            algorithm="map-elites",
            budget=1_500,
            trials=2,
            master_seed=5,
            target=QualityTarget(threshold=18, required_cell=4),
            workers=1,
            milestone_every=100,
        ),
        "f3b98abf95f2bf25dc32b6adb1df26bb76ad8664727060d0c4363d03a3f015e1",
        "fa4a59fd9f29573db9dd2317fb610355b924caebbbe5ec05fa7ee70a08d3c4b1",
        "c9650a36eaddd31c280deb4b1a700c38471f970c4d22aa82a6773c893c6bf3b6",
    ),
    "example1-ea-local": (
        ExperimentConfig(
            problem=ProblemSpec(kind="example1", n=30, delta="1/10"),
            algorithm="ea",
            budget=2_000,
            trials=2,
            master_seed=17,
            target=QualityTarget(threshold=200, strict=True),
            stop_on_target=False,
            strict=False,
            seed_population="local",
        ),
        "82da5096746e9b89518f09c4412debd7e852bb08b29c7543521efb4d880de4f5",
        "b2c7a15d6cc2a140e60a3850cab8b3b5896c72274ee7764952fc2354a4c48c0f",
        "0913ad1e0c850ca7d4570e4f1c1135ab3d30302051f10318472eb0bf235b4377",
    ),
    "example2-ea-tuple": (
        ExperimentConfig(
            problem=ProblemSpec(kind="example2", n=6),
            algorithm="ea",
            budget=800,
            trials=3,
            master_seed=2,
            init_count=2,
            target=QualityTarget(threshold=5, require_feasible=False),
            seed_population=("100000", "110000"),
            allow_unfair=True,
            milestone_every=37,
        ),
        "9cabd621ba0344c72158f51e3fbef0e092f7d9ee123014ef8031b42761f62103",
        "180fc34db0bcb7d43eaba8d03a3bec89a01a0fa02812358240fc8732aa27c1f0",
        "c34172d3ad71b3e7812c43384e232ec3271a1025859b3982999e28082b8830f3",
    ),
    "random-cover-map-elites": (
        ExperimentConfig(
            problem=ProblemSpec(
                kind="random-set-cover", n=10, m_elements=12, density=0.3, max_weight=7, instance_seed=8
            ),
            algorithm="map-elites",
            budget=1_000,
            trials=2,
            master_seed=60,
        ),
        "46ce1383207f84b078488b016d80d1c430e89663cdcd3b3aacea24fb06aa31bd",
        "fc75e1b3e20f15366e8c3301f31d0134ba56d77651da17018a06a507093acdfe",
        "17d8ef3b1ff9832233521f60defd3864cd620d4f0822023105680a34fde1b0f7",
    ),
}


@pytest.mark.parametrize("case_id", sorted(ARTIFACTS))
def test_exported_artifacts_are_frozen(case_id, tmp_path):
    config, document, rows, config_text = ARTIFACTS[case_id]
    report = run_experiment(config)
    export_report(report, tmp_path / "report.json", form="document")
    export_report(report, tmp_path / "rows.csv", form="rows")
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == document
    assert hashlib.sha256((tmp_path / "rows.csv").read_bytes()).hexdigest() == rows
    assert hashlib.sha256(json.dumps(config_to_dict(config)).encode()).hexdigest() == config_text


# `qdpb gen-instance` arguments -> sha256 of the instance file it writes.
INSTANCE_FILES = {
    "example1": (
        ["example1", "--n", "30", "--delta", "1/10"],
        "7ec3a997d94e8b0214b15748e00613c518ff00da2448fb8318091e350ec7ff90",
    ),
    "example2": (
        ["example2", "--n", "12"],
        "62aa298546042253e57e960c581d915497248a9cf2dc023564e1391dcc42987e",
    ),
    "random-max-coverage": (
        [
            "random-max-coverage", "--n", "10", "--m-elements", "12", "--density", "0.4",
            "--k", "4", "--instance-seed", "7",
        ],
        "e72ec1ce1b7a9f54c9b0b89a27b7fd4d38f3c9b407177c7930c3a0768b617d5d",
    ),
    "random-set-cover": (
        [
            "random-set-cover", "--n", "10", "--m-elements", "12", "--density", "0.3",
            "--max-weight", "7", "--instance-seed", "8",
        ],
        "307dbc0073b13c6b562083e64b0678b7e6115820c0dc7dc1a0d5b64094d519c2",
    ),
}


@pytest.mark.parametrize("case_id", sorted(INSTANCE_FILES))
def test_generated_instance_files_are_frozen(case_id, tmp_path):
    argv, expected = INSTANCE_FILES[case_id]
    out = tmp_path / "instance.json"
    assert main(["gen-instance", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
