"""The acceptance gate, one test per criterion.

Each test runs the identical check exposed by ``qdpb verify`` and prints its
one-line verdict.  The heavy criteria (c4-c6) run millions of evaluations;
the whole file takes a few minutes on one core.
"""

import dataclasses
import os

import pytest

from qdpb import acceptance
from qdpb.acceptance import CRITERION_IDS, run_criterion
from qdpb.analysis import brute_force_opt


# The verdict text of every criterion, frozen: a refactor of the experiments
# behind a criterion must reproduce each count, median and bound exactly.
DETAILS = {
    "c1": "40/40 random instances: both enumerations and greedy bounds agree",
    "c2": (
        "50/50 trials reached fitness >= 133 in cell 11 within 259221 evaluations "
        "(median first hit 99.5)"
    ),
    "c3": (
        "50/50 trials found a full cover of weight <= 37 within 57559 evaluations "
        "(median first hit 450.0)"
    ),
    "c4": (
        "0 improvements in 20x1e6 evaluations from the n=60 local optimum; "
        "per-step escape bound 3.71e-15; exhaustive n=9 analogue: radius 8, bound 2.32e-08"
    ),
    "c5": (
        "0 improvements in 20x1e6 evaluations from the n=12 umbrella cover; "
        "escape needs all n flips (radius == n verified for n=4..10), probability "
        "1.12e-13 per step; staying trapped costs 372.4x the optimum"
    ),
    "c6": (
        "archive search: median ratio 1.000, 50/50 trials at ratio >= 0.95; "
        "population search: median ratio 1.000, 50/50 at ratio >= 0.95 overall, "
        "0/50 had a column-only best at some point, 0 of those later beat its value, "
        "0 reached ratio >= 0.95 after entering"
    ),
    "c7": "8/8 invariant groups hold",
}


def _check(cid: str) -> None:
    result = run_criterion(cid)
    print(result.line())
    assert result.passed, result.line()
    assert result.details == DETAILS[cid]


def test_c1_exact_oracles_and_greedy_baselines_agree():
    _check("c1")


def test_c1_catches_a_planted_evaluator_fault(monkeypatch):
    # A probe_word fault on the first instance only: the empty selection
    # (word 0) scores as an optimum, so the optimum count grows by one.  The
    # oracle enumerates probe_word, so only a second enumeration that scores
    # words another way can disagree with it.
    make_problem = acceptance.make_problem
    planted = False

    def faulty_make_problem(inst, **kwargs):
        nonlocal planted
        problem = make_problem(inst, **kwargs)
        if planted:
            return problem
        planted = True
        opt = brute_force_opt(problem).fitness
        probe_word = problem.probe_word

        def faulty(word):
            return (opt, 0, True) if word == 0 else probe_word(word)

        return dataclasses.replace(problem, probe_word=faulty)

    monkeypatch.setattr(acceptance, "make_problem", faulty_make_problem)
    passed, details = acceptance._c1_oracle_agreement()
    assert planted and not passed
    assert details == "coverage instance seed=1000: oracle disagreement"


def test_c2_archive_search_reaches_near_optimal_coverage():
    _check("c2")


def test_c3_archive_search_finds_cheap_cover():
    _check("c3")


def test_c4_population_search_trapped_on_bipartite_instance():
    _check("c4")


def test_c5_population_search_trapped_on_umbrella_instance():
    _check("c5")


def test_c6_head_to_head_separation():
    _check("c6")


def test_c7_invariant_suites():
    _check("c7")


def test_registry_is_complete():
    assert CRITERION_IDS == ("c1", "c2", "c3", "c4", "c5", "c6", "c7") == tuple(DETAILS)
    with pytest.raises(Exception, match="unknown criterion"):
        run_criterion("c8")


@pytest.mark.parametrize("cpus", [None, 1, 5])
def test_long_criteria_use_every_core_and_short_ones_stay_serial(cpus, monkeypatch):
    # c2/c3 trials stop within a few hundred evaluations, less than a process
    # pool costs; c4-c6 run millions.  Stop each criterion at its first experiment.
    class Asked(Exception):
        pass

    def asked(config):
        raise Asked(config.workers)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(acceptance, "run_experiment", asked)
    for cid in ("c2", "c3", "c4", "c5", "c6"):
        with pytest.raises(Asked) as stopped:
            run_criterion(cid)
        assert stopped.value.args == (1 if cid in ("c2", "c3") else cpus or 1,), cid
