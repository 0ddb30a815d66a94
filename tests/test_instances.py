"""Generator and serialization tests, frozen against hand-computed layouts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdpb import instances
from qdpb.core import RandomSource, Solution
from qdpb.errors import ParameterError, ValidationError
from qdpb.harness import ProblemSpec, read_instance, resolve_problem, write_instance
from qdpb.problems import MaxCoverageInstance
from qdpb.instances import (
    Example1Params,
    Example2Params,
    example1_local_optimum,
    example1_max_coverage,
    example1_optimum,
    example2_local_optimum,
    example2_optimum,
    example2_set_cover,
    identify_instance,
    random_max_coverage,
    random_set_cover,
)
from qdpb.analysis import reference_probe
from qdpb.problems import make_problem


# ---------------------------------------------------------------------------
# Bipartite coverage family


def test_example1_small_layout():
    params = Example1Params(9, Fraction(1, 3))
    assert (params.left_count, params.right_count, params.k) == (4, 5, 4)
    assert params.m_edges == 20
    inst = example1_max_coverage(params)
    # Left vertex 0 covers the first block of edges; right vertex 0 the first column.
    assert inst.sets[0] == (0, 1, 2, 3, 4)
    assert inst.sets[3] == (15, 16, 17, 18, 19)
    assert inst.sets[4] == (0, 5, 10, 15)
    assert inst.sets[8] == (4, 9, 14, 19)
    problem = make_problem(inst)
    assert problem.probe(example1_optimum(params))[0] == 20 == params.opt_fitness
    local = example1_local_optimum(params)
    assert local.to_string() == "000011110"
    assert problem.probe(local)[0] == 16 == params.local_fitness
    assert reference_probe(local, inst) == (16, 4, True)


def test_example1_reference_size():
    params = Example1Params(30, Fraction(1, 10))
    assert (params.left_count, params.right_count) == (11, 19)
    assert params.m_edges == 209
    inst = example1_max_coverage(params)
    problem = make_problem(inst)
    assert problem.probe(example1_optimum(params))[0] == 209
    assert reference_probe(example1_optimum(params), inst)[0] == 209
    local = example1_local_optimum(params)
    assert local.to_string() == "0" * 11 + "1" * 11 + "0" * 8
    assert problem.probe(local)[0] == 121
    # One set past the budget is infeasible.
    over = Solution.from_string("1" * 12 + "0" * 18)
    assert problem.probe(over)[0::2] == (-1, False)
    assert reference_probe(over, inst) == (-1, 12, False)


def test_example1_trap_scale_parameters():
    params = Example1Params(60, Fraction(1, 10))
    assert (params.left_count, params.right_count, params.k) == (22, 38, 22)
    assert params.m_edges == 836
    assert example1_local_optimum(params).to_string() == "0" * 22 + "1" * 22 + "0" * 16


@pytest.mark.parametrize(
    "n, delta",
    [
        (10, Fraction(1, 10)),  # (1+delta)n/3 not an integer
        (30, Fraction(1, 7)),   # delta*n not an integer
        (30, Fraction(1, 2)),   # sides equal
        (30, Fraction(3, 5)),   # left side larger than right
        (30, Fraction(-1, 10)),
    ],
)
def test_example1_rejects_inadmissible_parameters(n, delta):
    with pytest.raises(ValidationError):
        Example1Params(n, delta)


def test_example1_every_edge_has_two_endpoints():
    inst = example1_max_coverage(Example1Params(30, Fraction(1, 10)))
    counts = [0] * inst.m_elements
    for s in inst.sets:
        for e in s:
            counts[e] += 1
    assert all(c == 2 for c in counts)


# ---------------------------------------------------------------------------
# Star cover family


def test_example2_reference_layout():
    params = Example2Params(5)
    inst = example2_set_cover(params)
    assert inst.sets == ((0, 1, 2, 3), (0,), (1,), (2,), (3,))
    assert inst.weights == (32, 1, 1, 1, 1)
    assert inst.penalty == 161
    assert example2_optimum(params).to_string() == "01111"
    assert example2_local_optimum(params).to_string() == "10000"
    assert params.opt_fitness == 4
    assert params.local_fitness == 32


def test_example2_trap_scale():
    params = Example2Params(12)
    inst = example2_set_cover(params)
    assert inst.weights[0] == 4096
    assert inst.penalty == 12 * 4096 + 1
    assert params.opt_fitness == 11


def test_example2_range_cap():
    Example2Params(40)
    for bad in (2, 41):
        with pytest.raises(ValidationError):
            Example2Params(bad)


# ---------------------------------------------------------------------------
# Random families


def test_random_max_coverage_deterministic_and_valid():
    a = random_max_coverage(8, 10, 0.3, 3, RandomSource(7))
    b = random_max_coverage(8, 10, 0.3, 3, RandomSource(7))
    assert a == b
    assert all(len(s) >= 1 for s in a.sets)
    c = random_max_coverage(8, 10, 0.3, 3, RandomSource(8))
    assert c != a


def test_random_set_cover_covers_everything():
    inst = random_set_cover(8, 10, 0.25, 9, RandomSource(11))
    union = set()
    for s in inst.sets:
        union |= set(s)
    assert union == set(range(10))
    assert all(1 <= w <= 9 for w in inst.weights)
    assert inst.penalty == 8 * max(inst.weights) + 1
    assert inst == random_set_cover(8, 10, 0.25, 9, RandomSource(11))


@settings(max_examples=20)
@given(st.integers(1, 8), st.integers(1, 10), st.integers(0, 999))
def test_random_generators_always_validate(n, m, seed):
    random_max_coverage(n, m, 0.4, 1 + seed % n, RandomSource(seed))
    random_set_cover(n, m, 0.4, 5, RandomSource(seed))


@pytest.mark.parametrize(
    "m_elements, density", [(0, 0.5), (-3, 1.0), (1, 1e-12), (1, 0.0005), (4, 0.0002)]
)
def test_random_generators_refuse_sets_that_are_almost_surely_empty(m_elements, density):
    # An empty draw is redone, so each of these would draw (nearly) for ever.
    for generate, bound in ((random_max_coverage, 1), (random_set_cover, 5)):
        rng = RandomSource(1)
        fresh = rng.getstate()
        with pytest.raises(ParameterError) as refused:
            generate(3, m_elements, density, bound, rng)
        assert f"m_elements={m_elements} at density={density}" in str(refused.value)
        assert rng.getstate() == fresh  # refused before any draw
    # Just inside the limit: an empty set is drawn with probability 0.998.
    assert random_max_coverage(3, 1, 0.002, 1, RandomSource(1)).sets == ((0,),) * 3


@pytest.mark.parametrize("n", [0, -1, -(10**30)])
def test_random_generators_refuse_a_size_below_one_set(n):
    # random_set_cover would otherwise patch an uncovered element into one of
    # no sets, and raise ValueError from randrange(n).
    for generate, bound in ((random_max_coverage, 1), (random_set_cover, 5)):
        rng = RandomSource(1)
        fresh = rng.getstate()
        with pytest.raises(ParameterError, match=f"n must be positive, got {n}"):
            generate(n, 7, 0.4, bound, rng)
        assert rng.getstate() == fresh


@pytest.mark.parametrize("n, m_elements", [(8, 10**30), (10**30, 8), (64, 2**22)])
def test_random_generators_refuse_sizes_no_problem_could_serve(n, m_elements):
    # The probe's chunk tables for these would pass their limit, so the
    # instance is refused before its first draw.
    for generate, bound in ((random_max_coverage, 1), (random_set_cover, 5)):
        rng = RandomSource(1)
        fresh = rng.getstate()
        with pytest.raises(ParameterError, match="MiB, over the 512 MiB limit"):
            generate(n, m_elements, 0.3, bound, rng)
        assert rng.getstate() == fresh


@pytest.mark.parametrize(
    "n, m_elements, density, draws",
    [(8, 2**24, 0.3, "134,217,728"), (64, 2**16 + 1, 1.0, "4,194,368"), (1, 2**22, 1e-9, "1,002,098,646")],
)
def test_random_generators_refuse_more_draws_than_the_limit(n, m_elements, density, draws):
    # The chunk tables of each would fit, but the draws would not: the first
    # takes 2^27 draws, the last about a thousand tries per set.
    for generate, bound in ((random_max_coverage, 1), (random_set_cover, 5)):
        rng = RandomSource(1)
        fresh = rng.getstate()
        with pytest.raises(ParameterError, match=f"about {draws} element draws, over the 4,194,304 limit"):
            generate(n, m_elements, density, bound, rng)
        assert rng.getstate() == fresh  # refused before any draw
    instances._check_draws(64, 2**16, 1.0)  # exactly at the limit


def test_example1_refuses_a_size_no_problem_could_serve():
    # 11,000 x 19,000 = 209M edges: refused before any set is built.
    with pytest.raises(ParameterError, match=r"m_elements=209000000 would take about 23918151 MiB"):
        example1_max_coverage(Example1Params(30000, Fraction(1, 10)))


# ---------------------------------------------------------------------------
# Identification


def test_identify_round_trip():
    p1 = Example1Params(30, Fraction(1, 10))
    assert identify_instance(example1_max_coverage(p1)) == p1
    p2 = Example2Params(12)
    assert identify_instance(example2_set_cover(p2)) == p2


def test_identify_rejects_random_instances():
    assert identify_instance(random_max_coverage(9, 12, 0.3, 4, RandomSource(3))) is None
    assert identify_instance(random_set_cover(9, 8, 0.3, 5, RandomSource(3))) is None


@pytest.mark.parametrize("n, k", [(840, 308), (1500, 550)])
def test_identify_compares_the_universe_before_regenerating(n, k, tmp_path):
    # The shape reads as a bipartite family far too large for its chunk
    # tables, but the universe has 10 elements, not the family's edge count.
    inst = MaxCoverageInstance(n=n, m_elements=10, k=k, sets=tuple((i % 10,) for i in range(n)))
    assert identify_instance(inst) is None
    path = tmp_path / "wide.json"
    write_instance(inst, path)
    problem = resolve_problem(ProblemSpec(kind="file", path=str(path)))
    assert (problem.n, problem.known_opt) == (n, None)


# ---------------------------------------------------------------------------
# Serialization


def test_instance_file_round_trip(tmp_path):
    inst = example1_max_coverage(Example1Params(9, Fraction(1, 3)))
    path = tmp_path / "bipartite.json"
    write_instance(inst, path)
    assert read_instance(path) == inst

    cover = example2_set_cover(Example2Params(6))
    path2 = tmp_path / "star.json"
    write_instance(cover, path2)
    assert read_instance(path2) == cover


@settings(max_examples=15)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 500))
def test_random_instance_file_round_trip(tmp_path_factory, n, m, seed):
    tmp = tmp_path_factory.mktemp("inst")
    inst = random_set_cover(n, m, 0.5, 7, RandomSource(seed))
    write_instance(inst, tmp / "i.json")
    assert read_instance(tmp / "i.json") == inst


def test_read_instance_error_reporting(tmp_path):
    bad = tmp_path / "bad.json"

    bad.write_text("{not json\n")
    with pytest.raises(ValidationError) as err:
        read_instance(bad)
    assert "line 1" in str(err.value)

    bad.write_text('{"format": "other", "kind": "set-cover"}')
    with pytest.raises(ValidationError) as err:
        read_instance(bad)
    assert "'format'" in str(err.value)

    bad.write_text(
        '{"format": "qdpb-instance-v1", "kind": "max-coverage", '
        '"n": 1, "m_elements": 2, "sets": [[0]]}'
    )
    with pytest.raises(ValidationError) as err:
        read_instance(bad)
    assert "'k'" in str(err.value)

    # Floats are not welcome in integer fields.
    bad.write_text(
        '{"format": "qdpb-instance-v1", "kind": "set-cover", "n": 1, '
        '"m_elements": 1, "sets": [[0]], "weights": [1.5], "penalty": 2}'
    )
    with pytest.raises(ValidationError) as err:
        read_instance(bad)
    assert "weights" in str(err.value)


def test_read_instance_revalidates(tmp_path):
    # A structurally broken document (uncovered element) is rejected with path context.
    bad = tmp_path / "gap.json"
    bad.write_text(
        '{"format": "qdpb-instance-v1", "kind": "set-cover", "n": 1, '
        '"m_elements": 2, "sets": [[0]], "weights": [1], "penalty": 2}'
    )
    with pytest.raises(ValidationError) as err:
        read_instance(bad)
    assert "gap.json" in str(err.value)


def test_problem_from_generated_instances():
    problem = make_problem(example1_max_coverage(Example1Params(9, Fraction(1, 3))))
    assert problem.num_cells == 10
    cover = make_problem(example2_set_cover(Example2Params(5)))
    assert cover.num_cells == 5
