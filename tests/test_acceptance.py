"""The acceptance gate, one test per criterion.

Each test runs the identical check exposed by ``qdpb verify`` and prints its
one-line verdict.  The heavy criteria (c4-c6) run millions of evaluations;
the whole file took 22-23 s on 2 vCPUs.
"""

import dataclasses
import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from qdpb import acceptance
from qdpb.acceptance import CRITERION_IDS, run_criterion
from qdpb.analysis import brute_force_opt
from qdpb.errors import ParameterError


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
    "c7": "7/7 invariant groups hold",
}


@pytest.mark.parametrize("cid", CRITERION_IDS)
def test_criterion(cid):
    result = run_criterion(cid)
    print(result.line())
    assert result.passed, result.line()
    assert result.details == DETAILS[cid]


@pytest.mark.parametrize(
    "calls_before, details",
    [(0, "coverage instance seed=1000: oracle disagreement"), (20, "cover instance seed=2000: oracle disagreement")],
    ids=["coverage", "set-cover"],
)
def test_c1_catches_a_planted_evaluator_fault(calls_before, details, monkeypatch):
    # A probe_word fault on one instance only, the first of its kind: the
    # empty selection (word 0) scores as an optimum.  The oracle enumerates
    # the instance and never probes, so c1 sees the fault by checking every
    # word's probe_word triple against reference_probe.
    make_problem = acceptance.make_problem
    calls = 0

    def faulty_make_problem(inst, **kwargs):
        nonlocal calls
        calls += 1
        problem = make_problem(inst, **kwargs)
        if calls != calls_before + 1:
            return problem
        opt = brute_force_opt(problem).fitness
        probe_word = problem.probe_word

        def faulty(word):
            return (opt, 0, True) if word == 0 else probe_word(word)

        return dataclasses.replace(problem, probe_word=faulty)

    monkeypatch.setattr(acceptance, "make_problem", faulty_make_problem)
    passed, found = acceptance._c1_oracle_agreement()
    assert calls == calls_before + 1 and not passed
    assert found == details


# Past x = 2000 the tail is below 1e-300 for every df up to 60.
@settings(max_examples=300)
@given(st.floats(0, 2000), st.integers(1, 60))
@example(0.0, 1)
@example(1516.4927228889155, 50)  # exp(-x/2) underflows; the tail is 1.1e-284
def test_chi2_sf_matches_scipy(x, df):
    expected = stats.chi2.sf(x, df)
    if expected > 1e-300:
        assert math.isclose(acceptance._chi2_sf(x, df), expected, rel_tol=1e-12)


@pytest.mark.parametrize("n, pvalue", [(5, 0.8277799301269446), (30, 0.32325325123923543)], ids=["n5", "n30"])
def test_c7_flip_count_pvalues_match_scipy(n, pvalue):
    # scipy.stats.chisquare's p-values for the flip counts c7 samples.
    assert math.isclose(acceptance._flip_count_pvalue(n), pvalue, rel_tol=1e-12)


def test_registry_is_complete():
    assert CRITERION_IDS == tuple(DETAILS)
    absent = f"c{len(CRITERION_IDS) + 1}"
    assert absent not in CRITERION_IDS
    with pytest.raises(ParameterError, match=f"unknown criterion '{absent}'"):
        run_criterion(absent)


def test_a_criterion_named_twice_is_refused_before_any_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(acceptance, "run_criterion", ran.append)
    with pytest.raises(ParameterError, match="'c1' is named twice"):
        acceptance.run_all(only=("c1", "c7", "c1"))
    assert ran == []


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
