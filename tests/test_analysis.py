"""Oracle tests: every derived constant here was computed by an independent route."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdpb.acceptance import _independent_enumeration
from qdpb.algorithms import Archive, Population, RunConfig, run_ea
from qdpb.analysis import (
    approximation_ratio,
    best_greedy_gain,
    brute_force_opt,
    escape_radius,
    greedy_max_coverage,
    greedy_set_cover,
    qd_metrics,
    reference_probe,
    trap_escape_probability_bound,
)
from qdpb.core import RandomSource, Solution
from qdpb.errors import ParameterError
from qdpb.instances import (
    Example1Params,
    Example2Params,
    example1_local_optimum,
    example1_max_coverage,
    example1_optimum,
    example2_local_optimum,
    example2_optimum,
    example2_set_cover,
    random_max_coverage,
    random_set_cover,
)
from qdpb.problems import (
    Direction,
    MaxCoverageInstance,
    SetCoverInstance,
    default_penalty,
    make_problem,
)

S = Solution.from_string


# ---------------------------------------------------------------------------
# Brute force


def test_brute_force_bipartite_reference():
    params = Example1Params(9, Fraction(1, 3))
    problem = make_problem(example1_max_coverage(params))
    result = brute_force_opt(problem)
    assert result.fitness == 20
    assert result.optima_count == 1
    assert result.solution == example1_optimum(params) == S("111100000")


def test_brute_force_star_reference_and_runner_up():
    params = Example2Params(5)
    problem = make_problem(example2_set_cover(params))
    result = brute_force_opt(problem)
    assert result.fitness == 4
    assert result.optima_count == 1
    assert result.solution == example2_optimum(params)
    # Runner-up check by independent full enumeration: the umbrella-only cover
    # is the second-best solution overall.
    all_values = sorted(
        (problem.probe_word(w)[0], w) for w in range(32)
    )
    assert all_values[0] == (4, S("01111").word)
    assert all_values[1] == (32, S("10000").word)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_brute_force_agrees_with_reverse_enumeration(seed, cover):
    rng = RandomSource(seed)
    if cover:
        problem = make_problem(random_set_cover(7, 8, 0.35, 6, rng))
    else:
        problem = make_problem(random_max_coverage(7, 9, 0.35, 3, rng))
    result = brute_force_opt(problem)
    assert _independent_enumeration(problem) == (result.fitness, result.optima_count, result.solution.word, None)


def probe_enumeration(problem):
    """Every word scored by ``probe_word``, one at a time: the best feasible
    fitness, how many words reach it, and the smallest of them."""
    feasible = []
    for word in range(1 << problem.n):
        fitness, _cell, ok = problem.probe_word(word)
        if ok:
            feasible.append((fitness, word))
    fitnesses = [fitness for fitness, _word in feasible]
    best = max(fitnesses) if problem.direction is Direction.MAXIMIZE else min(fitnesses)
    return best, fitnesses.count(best), min(word for fitness, word in feasible if fitness == best)


@st.composite
def oracle_instances(draw):
    """Either kind at n = 1..14, its sets drawn from a pool of at most four,
    so equal sets (and tied optima) fall on both sides of the half split.
    Coverage caps at k = 1, k = n or between; a cover may hold one set of
    every element."""
    n = draw(st.integers(1, 14))
    m = draw(st.integers(1, 6))
    pool = draw(st.lists(st.sets(st.integers(0, m - 1)), min_size=1, max_size=4))
    raw = [set(draw(st.sampled_from(pool))) for _ in range(n)]
    if draw(st.booleans()):
        k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
        return MaxCoverageInstance(n=n, m_elements=m, k=k, sets=tuple(tuple(sorted(s)) for s in raw))
    if draw(st.booleans()):
        raw[draw(st.integers(0, n - 1))] = set(range(m))
    else:
        raw[0] |= set(range(m)) - set().union(*raw)  # coverable
    weights = tuple(draw(st.integers(1, 3)) for _ in range(n))
    return SetCoverInstance(
        n=n, m_elements=m, weights=weights, penalty=default_penalty(n, weights),
        sets=tuple(tuple(sorted(s)) for s in raw),
    )


@settings(max_examples=300, deadline=None)
@given(oracle_instances())
@example(MaxCoverageInstance(n=1, m_elements=1, k=1, sets=((0,),)))
@example(MaxCoverageInstance(n=1, m_elements=2, k=1, sets=((),)))
@example(MaxCoverageInstance(n=6, m_elements=2, k=1, sets=((0,), (1,)) * 3))
@example(MaxCoverageInstance(n=7, m_elements=3, k=7, sets=((0, 1), (2,), (), (0, 1), (2,), (1,), (0, 1))))
@example(MaxCoverageInstance(n=8, m_elements=4, k=3, sets=((0, 1), (2, 3)) * 4))
@example(SetCoverInstance(n=1, m_elements=1, weights=(1,), penalty=2, sets=((0,),)))
@example(SetCoverInstance(n=5, m_elements=3, weights=(2, 1, 1, 2, 1), penalty=11,
                          sets=((0, 1, 2), (0,), (1, 2), (0, 1, 2), (0,))))
@example(SetCoverInstance(n=8, m_elements=2, weights=(1,) * 8, penalty=9, sets=((0,), (1,)) * 4))
def test_brute_force_equals_a_probe_word_enumeration(inst):
    problem = make_problem(inst)
    result = brute_force_opt(problem)
    assert (result.fitness, result.optima_count, result.solution.word) == probe_enumeration(problem)


@st.composite
def spread_coverages(draw):
    """Coverage at n = 1..14 over 4..40 elements: distinct sets, each of a
    size drawn first, so union sizes spread and the size-ordered cut skips
    low words; k anywhere in 1..n."""
    n = draw(st.integers(1, 14))
    m = draw(st.integers(4, 40))
    sets: list[tuple[int, ...]] = []
    while len(sets) < n:
        size = draw(st.integers(0, m))
        chosen = tuple(sorted(draw(st.permutations(range(m)))[:size]))
        if chosen not in sets:
            sets.append(chosen)
    return MaxCoverageInstance(n=n, m_elements=m, k=draw(st.integers(1, n)), sets=tuple(sets))


@settings(max_examples=60, deadline=None)
@given(spread_coverages())
# All sets equal at k = n: every nonempty word ties.
@example(MaxCoverageInstance(n=9, m_elements=5, k=9, sets=((0, 1, 2),) * 9))
# The optimum 0b0101 pairs set 2 with low set 0, the smaller of the two low
# unions that tie with it, and 0b0110 with low set 1 ties.
@example(MaxCoverageInstance(n=4, m_elements=5, k=2, sets=((0,), (0, 1, 2), (1, 2, 3), (4,))))
# Under set 2's cap of one low set, its best partner is low set 1, whose
# union is the smaller of the two.
@example(MaxCoverageInstance(n=4, m_elements=10, k=2, sets=((0, 1, 2, 3, 4), (6, 7), (0, 1, 2, 3, 4, 5), (9,))))
# The optimum is both low sets and no high one: a cap that reaches k.
@example(MaxCoverageInstance(n=4, m_elements=4, k=2, sets=((0, 1), (2, 3), (0,), (2,))))
def test_brute_force_coverage_with_spread_unions(inst):
    problem = make_problem(inst)
    result = brute_force_opt(problem)
    assert (result.fitness, result.optima_count, result.solution.word) == probe_enumeration(problem)


@st.composite
def dominated_covers(draw):
    """Set covers at n = 1..10 over up to 40 elements, each set the union of
    a few blocks from a pool of at most five, so sets nest and repeat and
    many elements' signatures (the sets that hold them) hold another's."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 40))
    blocks = draw(st.lists(st.sets(st.integers(0, m - 1)), min_size=1, max_size=5))
    raw = [set().union(*draw(st.lists(st.sampled_from(blocks), max_size=3))) for _ in range(n)]
    raw[draw(st.integers(0, n - 1))] |= set(range(m)) - set().union(*raw)  # coverable
    weights = tuple(draw(st.integers(1, 3)) for _ in range(n))
    return SetCoverInstance(
        n=n, m_elements=m, weights=weights, penalty=default_penalty(n, weights),
        sets=tuple(tuple(sorted(s)) for s in raw),
    )


@settings(max_examples=150, deadline=None)
@given(dominated_covers())
# Two signatures for four elements; three covers of weight 2, one per half or across.
@example(SetCoverInstance(n=4, m_elements=4, weights=(1, 2, 1, 1), penalty=9,
                          sets=((0, 1), (0, 1, 2, 3), (2, 3), (0, 1))))
def test_brute_force_cover_with_dominated_elements(inst):
    problem = make_problem(inst)
    result = brute_force_opt(problem)
    assert _independent_enumeration(problem) == (result.fitness, result.optima_count, result.solution.word, None)


@pytest.mark.parametrize("density", [0.15, 0.7])
def test_brute_force_cover_with_many_elements(density):
    # 2,000 elements, of which 12 (at density 0.15, where only the full word
    # covers) or 90 (at 0.7, optimum 0b10001011110) are minimal.
    problem = make_problem(random_set_cover(12, 2000, density, 8, RandomSource(1)))
    result = brute_force_opt(problem)
    assert _independent_enumeration(problem) == (result.fitness, result.optima_count, result.solution.word, None)


def test_brute_force_never_probes():
    def refuse(word):
        raise AssertionError(f"probe_word({word}) called")

    for inst in (
        random_max_coverage(11, 12, 0.3, 4, RandomSource(5)),
        random_set_cover(11, 10, 0.3, 6, RandomSource(6)),
    ):
        problem = make_problem(inst)
        assert brute_force_opt(dataclasses.replace(problem, probe_word=refuse)) == brute_force_opt(problem)


def test_brute_force_refuses_a_problem_without_an_instance():
    problem = dataclasses.replace(make_problem(example2_set_cover(Example2Params(5))), instance=None)
    with pytest.raises(ParameterError, match="has none"):
        brute_force_opt(problem)


def test_brute_force_guard():
    inst = random_max_coverage(25, 4, 0.5, 2, RandomSource(0))
    with pytest.raises(ParameterError):
        brute_force_opt(make_problem(inst))


# ---------------------------------------------------------------------------
# Greedy baselines


def test_greedy_gain_at_the_optimum_is_zero():
    params = Example1Params(30, Fraction(1, 10))
    inst = example1_max_coverage(params)
    index, gain = best_greedy_gain(example1_optimum(params), inst)
    assert (index, gain) == (11, 0)  # first right vertex, nothing new to cover


def test_greedy_max_coverage_solves_bipartite_reference():
    params = Example1Params(9, Fraction(1, 3))
    inst = example1_max_coverage(params)
    greedy = greedy_max_coverage(inst)
    assert greedy == example1_optimum(params)
    assert greedy.ones() == inst.k


def test_greedy_gain_ties_go_to_lowest_index():
    params = Example1Params(9, Fraction(1, 3))
    inst = example1_max_coverage(params)
    index, gain = best_greedy_gain(Solution(9, 0), inst)
    assert (index, gain) == (0, 5)  # all left vertices tie at 5; lowest wins


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_greedy_max_coverage_beats_the_classic_bound(seed):
    inst = random_max_coverage(8, 10, 0.35, 3, RandomSource(seed))
    problem = make_problem(inst)
    opt = brute_force_opt(problem).fitness
    value = problem.probe(greedy_max_coverage(inst))[0]
    assert value >= (1 - 1 / math.e) * opt - 1e-9


def test_greedy_set_cover_star_reference():
    inst = example2_set_cover(Example2Params(5))
    greedy = greedy_set_cover(inst)
    assert greedy == S("01111")  # unit singletons beat the weight-32 umbrella


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_greedy_set_cover_meets_harmonic_bound(seed):
    inst = random_set_cover(8, 9, 0.3, 7, RandomSource(seed))
    problem = make_problem(inst)
    value, _cell, feasible = problem.probe(greedy_set_cover(inst))
    assert feasible
    opt = brute_force_opt(problem).fitness
    assert value <= (math.log(inst.m_elements) + 1) * opt + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_greedy_gain_inequality_on_random_states(seed):
    # Coverage is submodular, so k * gain(x) >= OPT - f(x) for the raw
    # coverage objective, in exact integers.
    rng = RandomSource(seed)
    inst = random_max_coverage(7, 9, 0.35, 4, rng)
    opt = brute_force_opt(make_problem(inst)).fitness
    x = Solution(7, rng.getrandbits(7))
    while x.ones() >= inst.k:
        x = Solution(7, rng.getrandbits(7))
    _idx, gain = best_greedy_gain(x, inst)
    assert inst.k * gain >= opt - reference_probe(x, inst)[0]


# ---------------------------------------------------------------------------
# Escape structure


def distance_scan(x, problem):
    """Independent escape-radius oracle: full enumeration grouped by XOR popcount,
    scored by the set-based ``reference_probe`` and compared with plain ``>``/``<``."""
    inst = problem.instance
    base = reference_probe(x, inst)[0]
    maximize = problem.direction is Direction.MAXIMIZE
    best = problem.n + 1
    for word in range(1 << problem.n):
        fitness = reference_probe(Solution(problem.n, word), inst)[0]
        if (fitness > base) if maximize else (fitness < base):
            best = min(best, (word ^ x.word).bit_count())
    return best


def test_escape_radius_star_reference():
    params = Example2Params(5)
    problem = make_problem(example2_set_cover(params))
    local = example2_local_optimum(params)
    assert escape_radius(local, problem) == 5
    assert distance_scan(local, problem) == 5
    assert escape_radius(example2_optimum(params), problem) == 6  # sentinel n+1


def test_escape_radius_bipartite_reference():
    params = Example1Params(9, Fraction(1, 3))
    problem = make_problem(example1_max_coverage(params))
    local = example1_local_optimum(params)
    assert escape_radius(local, problem) == 8
    assert distance_scan(local, problem) == 8
    assert escape_radius(example1_optimum(params), problem) == 10


def test_escape_radius_guard():
    inst = random_max_coverage(21, 4, 0.5, 2, RandomSource(0))
    with pytest.raises(ParameterError):
        escape_radius(Solution(21, 0), make_problem(inst))


def test_trap_bound_star_is_exact():
    assert trap_escape_probability_bound(Example2Params(12)) == float(
        Fraction(1, 12**12)
    )
    assert trap_escape_probability_bound(Example2Params(5)) == float(Fraction(1, 5**5))


def test_trap_bound_bipartite_small():
    params = Example1Params(9, Fraction(1, 3))
    bound = trap_escape_probability_bound(params)
    # Only the add-4/delete-4 pattern improves, so the bound is 1/9^8 and the
    # cheapest escape costs 8 flips, matching the exhaustive radius.
    assert bound == float(Fraction(math.comb(4, 4) * math.comb(4, 4), 9**8))
    problem = make_problem(example1_max_coverage(params))
    assert escape_radius(example1_local_optimum(params), problem) == 8


def test_trap_bound_bipartite_improving_pairs_oracle():
    # Cross-check the gain arithmetic against direct evaluation of f(a, b).
    params = Example1Params(30, Fraction(1, 10))
    k, right = params.k, params.right_count

    def coverage(a, b):
        return a * right + b * k - a * b

    base = coverage(0, k)
    direct = set()
    for a in range(1, k + 1):
        for e in range(a, k + 1):
            if coverage(a, k - e) > base:
                direct.add((a, e))
    from qdpb.analysis import _bipartite_minimal_escapes

    minimal = set(_bipartite_minimal_escapes(params))
    assert minimal <= direct
    assert all(
        any(a2 <= a and e2 <= e for (a2, e2) in minimal) for (a, e) in direct
    )
    assert min(a + e for a, e in minimal) == 8  # four adds, four deletes


def test_trap_bound_large_instance_is_negligible():
    bound = trap_escape_probability_bound(Example1Params(60, Fraction(1, 10)))
    assert 0 < bound < 1e-12


# ---------------------------------------------------------------------------
# Metrics


def test_qd_metrics_counts_and_sums():
    inst = random_max_coverage(5, 6, 0.5, 2, RandomSource(1))
    problem = make_problem(inst)
    archive = Archive(problem.num_cells, problem.n, problem.direction)
    a, b = S("00000"), S("11000")
    archive.consider(a.word, problem.probe(a))
    archive.consider(b.word, problem.probe(b))
    metrics = qd_metrics(archive)
    assert metrics.coverage == 2
    assert metrics.qd_score == problem.probe(a)[0] + problem.probe(b)[0]


def test_qd_metrics_all_infeasible_archive():
    inst = random_max_coverage(5, 6, 0.5, 2, RandomSource(1))
    problem = make_problem(inst)
    archive = Archive(problem.num_cells, problem.n, problem.direction)
    for x in (S("11100"), S("11110"), S("11111")):
        archive.consider(x.word, problem.probe(x))
    metrics = qd_metrics(archive)
    assert metrics.coverage == 3
    assert metrics.qd_score == -3  # infeasible occupants score -1 each


def test_qd_metrics_counts_a_shared_cell_once_with_its_best():
    inst = random_max_coverage(5, 6, 0.5, 2, RandomSource(1))
    problem = make_problem(inst)
    population = Population(problem.n, problem.direction, RandomSource(0))
    words = ("01000", "10000", "00100", "00000", "11100")
    for x in map(S, words):
        population.add(x.word, problem.probe(x))
    singles = [problem.probe(S(w))[0] for w in words[:3]]
    assert singles[1] > singles[0] >= singles[2]  # cell 1's best arrives second
    metrics = qd_metrics(population)
    assert metrics.coverage == 3  # cells 1, 0 and the infeasible 3
    assert metrics.qd_score == singles[1] + 0 - 1


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 12),
    mu=st.integers(1, 30),
    cover=st.booleans(),
    strict=st.booleans(),
)
def test_qd_metrics_of_a_population_equals_its_archive_view(seed, n, mu, cover, strict):
    # The reference is the view the harness once built for every EA trial:
    # the population offered member by member to an archive's keep rule.
    rng = RandomSource(seed)
    if cover:
        problem = make_problem(random_set_cover(n, 8, 0.35, 6, rng))
    else:
        problem = make_problem(random_max_coverage(n, 9, 0.35, max(1, n // 3), rng))
    trace = run_ea(problem, RunConfig(budget=mu + 200, init_count=mu, seed=seed, strict=strict))
    population = trace.kept
    archive = Archive(problem.num_cells, problem.n, problem.direction)
    for word, result in zip(population.words, population.results):
        archive.consider(word, result)
    assert qd_metrics(population) == qd_metrics(archive)


def test_approximation_ratio_reference_values():
    assert approximation_ratio(121, 209) == 121 / 209
    assert approximation_ratio(32, 4) == 8.0
    assert approximation_ratio(4096, 11) == 2**12 / 11
    with pytest.raises(ParameterError):
        approximation_ratio(5, 0)
