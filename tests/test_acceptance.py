"""The acceptance gate, one test per criterion.

Each test runs the identical check exposed by ``qdpb verify`` and prints its
one-line verdict.  The heavy criteria (c4-c6) run millions of evaluations;
the whole file takes a few minutes on one core.
"""

import dataclasses

import pytest

from qdpb import acceptance
from qdpb.acceptance import CRITERION_IDS, run_criterion
from qdpb.analysis import brute_force_opt


def _check(cid: str) -> None:
    result = run_criterion(cid)
    print(result.line())
    assert result.passed, result.line()


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
    assert CRITERION_IDS == ("c1", "c2", "c3", "c4", "c5", "c6", "c7")
    with pytest.raises(Exception, match="unknown criterion"):
        run_criterion("c8")
