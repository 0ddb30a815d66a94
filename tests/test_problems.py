"""Tests for the two problem reformulations, frozen against hand-checked values."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdpb.core import Solution
from qdpb.errors import ParameterError, ValidationError
from qdpb.problems import (
    Direction,
    MaxCoverageInstance,
    SetCoverInstance,
    coverage_count,
    default_penalty,
    is_better,
    is_feasible,
    make_max_coverage_problem,
    make_problem,
    make_set_cover_problem,
    set_cover_descriptor,
    set_cover_eval,
    submodular_descriptor,
    submodular_eval,
)

S = Solution.from_string


@pytest.fixture
def tiny_coverage():
    return MaxCoverageInstance(n=3, m_elements=4, sets=((0, 1), (1, 2), (3,)), k=2)


@pytest.fixture
def star_cover5():
    # 5 sets over 4 elements: one expensive umbrella set plus unit singletons.
    return SetCoverInstance(
        n=5,
        m_elements=4,
        sets=((0, 1, 2, 3), (0,), (1,), (2,), (3,)),
        weights=(32, 1, 1, 1, 1),
        penalty=161,
    )


# ---------------------------------------------------------------------------
# Coverage maximization


def test_coverage_eval_worked_examples(tiny_coverage):
    assert submodular_eval(S("110"), tiny_coverage) == 3
    assert submodular_eval(S("011"), tiny_coverage) == 3
    assert submodular_eval(S("010"), tiny_coverage) == 2
    assert submodular_eval(S("000"), tiny_coverage) == 0
    assert submodular_eval(S("111"), tiny_coverage) == -1  # over the size cap


def test_coverage_descriptor_counts_ones(tiny_coverage):
    assert submodular_descriptor(S("000")) == 0
    assert submodular_descriptor(S("101")) == 2
    problem = make_max_coverage_problem(tiny_coverage)
    assert problem.num_cells == 4
    assert is_feasible(S("110"), problem)
    assert not is_feasible(S("111"), problem)


def test_coverage_count_matches_set_oracle(tiny_coverage):
    sets = tiny_coverage.sets
    for word in range(8):
        x = Solution(3, word)
        expected = len(set().union(*(sets[i] for i in range(3) if word >> i & 1), set()))
        assert coverage_count(x, sets, 4) == expected


def test_coverage_length_mismatch(tiny_coverage):
    with pytest.raises(ParameterError):
        submodular_eval(S("1100"), tiny_coverage)
    with pytest.raises(ParameterError):
        coverage_count(S("11"), tiny_coverage.sets, 4)


def test_max_coverage_validation():
    with pytest.raises(ValidationError):
        MaxCoverageInstance(n=2, m_elements=3, sets=((0,),), k=1)
    with pytest.raises(ValidationError) as err:
        MaxCoverageInstance(n=2, m_elements=3, sets=((0,), (3,)), k=1)
    assert "sets[1]" in str(err.value)
    with pytest.raises(ValidationError):
        MaxCoverageInstance(n=2, m_elements=3, sets=((0,), (2, 1)), k=1)
    with pytest.raises(ValidationError):
        MaxCoverageInstance(n=2, m_elements=3, sets=((0,), (1,)), k=3)


# ---------------------------------------------------------------------------
# Set cover


def test_set_cover_eval_worked_examples(star_cover5):
    assert set_cover_eval(S("01111"), star_cover5) == 4
    assert set_cover_eval(S("10000"), star_cover5) == 32
    assert set_cover_eval(S("00000"), star_cover5) == 644
    assert set_cover_eval(S("11111"), star_cover5) == 36
    # Partial cover: two singletons cover 2 of 4 elements.
    assert set_cover_eval(S("01100"), star_cover5) == 2 + 161 * 2


def test_set_cover_descriptor(star_cover5):
    assert set_cover_descriptor(S("01100"), star_cover5) == 2
    assert set_cover_descriptor(S("10000"), star_cover5) == 4
    problem = make_set_cover_problem(star_cover5)
    assert problem.num_cells == 5
    assert problem.direction is Direction.MINIMIZE
    assert is_feasible(S("10000"), problem)
    assert not is_feasible(S("01100"), problem)


def test_default_penalty(star_cover5):
    assert default_penalty(5, star_cover5.weights) == 161


def test_set_cover_validation():
    good = dict(n=2, m_elements=2, sets=((0,), (1,)), weights=(1, 1), penalty=3)
    SetCoverInstance(**good)
    with pytest.raises(ValidationError):
        SetCoverInstance(**{**good, "penalty": 2})  # must exceed n * w_max
    with pytest.raises(ValidationError):
        SetCoverInstance(**{**good, "weights": (1, 0)})
    with pytest.raises(ValidationError):
        SetCoverInstance(**{**good, "weights": (1,)})
    with pytest.raises(ValidationError) as err:
        SetCoverInstance(n=2, m_elements=3, sets=((0,), (1,)), weights=(1, 1), penalty=3)
    assert "[2]" in str(err.value)  # uncovered element named


def test_set_cover_overflow_guard():
    w = 2**50
    with pytest.raises(ValidationError) as err:
        SetCoverInstance(
            n=3,
            m_elements=2,
            sets=((0, 1), (0,), (1,)),
            weights=(w, 1, 1),
            penalty=3 * w + 1,
        )
    assert "2^53" in str(err.value)
    # A comfortably representable variant passes.
    SetCoverInstance(
        n=3,
        m_elements=2,
        sets=((0, 1), (0,), (1,)),
        weights=(2**40, 1, 1),
        penalty=3 * 2**40 + 1,
    )


# ---------------------------------------------------------------------------
# Direction helper and probe coherence


def test_is_better_truth_table():
    assert is_better(2, 1, Direction.MAXIMIZE)
    assert not is_better(1, 1, Direction.MAXIMIZE)
    assert is_better(1, 1, Direction.MAXIMIZE, strict=False)
    assert is_better(1, 2, Direction.MINIMIZE)
    assert not is_better(2, 2, Direction.MINIMIZE)
    assert is_better(2, 2, Direction.MINIMIZE, strict=False)


# Sizes on both sides of the 8-bit chunk boundaries of the probe's tables.
sizes = st.one_of(st.integers(1, 9), st.sampled_from((16, 17, 60, 65)))


@st.composite
def coverage_instances(draw):
    n = draw(sizes)
    m = draw(st.integers(1, 9))
    sets = tuple(
        tuple(sorted(draw(st.sets(st.integers(0, m - 1))))) for _ in range(n)
    )
    k = draw(st.integers(1, n))
    return MaxCoverageInstance(n=n, m_elements=m, sets=sets, k=k)


@st.composite
def cover_instances(draw):
    n = draw(sizes)
    m = draw(st.integers(1, 9))
    raw = [draw(st.sets(st.integers(0, m - 1))) for _ in range(n)]
    raw[0] |= set(range(m)) - set().union(*raw)  # guarantee coverability
    sets = tuple(tuple(sorted(s)) for s in raw)
    weights = tuple(draw(st.integers(1, 9)) for _ in range(n))
    return SetCoverInstance(
        n=n, m_elements=m, sets=sets, weights=weights,
        penalty=default_penalty(n, weights),
    )


@given(coverage_instances(), st.data())
def test_max_coverage_probe_agrees_with_parts(inst, data):
    problem = make_problem(inst)
    word = data.draw(st.integers(0, 2**inst.n - 1))
    x = Solution(inst.n, word)
    assert problem.probe(x) == (
        problem.evaluate(x),
        problem.descriptor(x),
        problem.feasible(x),
    )
    assert problem.evaluate(x) == submodular_eval(x, inst)
    assert problem.descriptor(x) == submodular_descriptor(x)


@given(cover_instances(), st.data())
def test_set_cover_probe_agrees_with_parts(inst, data):
    problem = make_problem(inst)
    word = data.draw(st.integers(0, 2**inst.n - 1))
    x = Solution(inst.n, word)
    assert problem.probe(x) == (
        problem.evaluate(x),
        problem.descriptor(x),
        problem.feasible(x),
    )
    assert problem.evaluate(x) == set_cover_eval(x, inst)
    assert problem.descriptor(x) == set_cover_descriptor(x, inst)
    assert problem.descriptor(x) == coverage_count(x, inst.sets, inst.m_elements)
