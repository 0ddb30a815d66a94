"""Oracle tests: every derived constant here was computed by an independent route."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdpb.algorithms import Archive
from qdpb.analysis import (
    OracleResult,
    QdMetrics,
    SetFunctionTable,
    approximation_ratio,
    best_greedy_gain,
    brute_force_opt,
    escape_radius,
    gamma_min,
    greedy_max_coverage,
    greedy_set_cover,
    qd_metrics,
    reference_probe,
    submodularity_ratio,
    trap_escape_probability_bound,
)
from qdpb.core import RandomSource, Solution
from qdpb.errors import ParameterError, ValidationError
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
from qdpb.problems import Direction, make_problem

S = Solution.from_string


def reverse_enumeration(problem):
    """Independent oracle: scan words downward, track best feasible and tie count.

    Words are scored by the set-based ``reference_probe`` and compared with
    plain ``>``/``<``, sharing no code with ``brute_force_opt``'s evaluator."""
    maximize = problem.direction is Direction.MAXIMIZE
    best_fitness = None
    count = 0
    witness = None
    for word in range((1 << problem.n) - 1, -1, -1):
        fitness, _cell, feasible = reference_probe(Solution(problem.n, word), problem.instance)
        if not feasible:
            continue
        if best_fitness is None or ((fitness > best_fitness) if maximize else (fitness < best_fitness)):
            best_fitness, count, witness = fitness, 1, word
        elif fitness == best_fitness:
            count += 1
    return best_fitness, count, witness


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
    fitness, count, _witness = reverse_enumeration(problem)
    assert result.fitness == fitness
    assert result.optima_count == count
    assert reference_probe(result.solution, problem.instance)[0::2] == (result.fitness, True)


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


# ---------------------------------------------------------------------------
# Submodularity ratio


def three_item_table():
    # Non-submodular set function on items {0, 1, 2}; index is the selection mask.
    return SetFunctionTable(3, (0, 1, 1, 1.5, 0.1, 1.1, 1.1, 2.5))


def exhaustive_ratio(table, X, l):
    """Independent recomputation with exact rationals."""
    best = None
    n = table.n
    values = [Fraction(v) for v in table.values]
    for r in range(len(X) + 1):
        for L in combinations(sorted(X), r):
            mask_L = sum(1 << i for i in L)
            rest = [i for i in range(n) if i not in L]
            for size in range(1, l + 1):
                for Scombo in combinations(rest, size):
                    mask_S = sum(1 << i for i in Scombo)
                    joint = values[mask_L | mask_S] - values[mask_L]
                    if joint <= 0:
                        continue
                    singles = sum(values[mask_L | (1 << i)] - values[mask_L] for i in Scombo)
                    ratio = singles / joint
                    if best is None or ratio < best:
                        best = ratio
    return best


def test_submodularity_ratio_worked_example():
    table = three_item_table()
    gamma = submodularity_ratio(table, {0, 1}, 2)
    assert abs(gamma - 0.4) < 1e-9
    assert abs(gamma - float(exhaustive_ratio(table, {0, 1}, 2))) < 1e-12
    # Same function with exact rationals: the minimum is exactly 2/5.
    F = Fraction
    exact = SetFunctionTable(
        3, (0, 1, 1, F(3, 2), F(1, 10), F(11, 10), F(11, 10), F(5, 2))
    )
    assert exhaustive_ratio(exact, {0, 1}, 2) == F(2, 5)


def test_submodularity_ratio_accepts_mask_and_solution_forms():
    table = three_item_table()
    expected = submodularity_ratio(table, {0, 1}, 2)
    assert submodularity_ratio(table, 0b011, 2) == expected
    assert submodularity_ratio(table, S("110"), 2) == expected


def test_submodularity_ratio_requires_monotone():
    bad = SetFunctionTable(2, (0, 1, 1, 0.5))
    assert not bad.is_monotone
    with pytest.raises(ValidationError):
        submodularity_ratio(bad, {0}, 1)


def test_submodularity_ratio_parameter_guards():
    table = three_item_table()
    with pytest.raises(ParameterError):
        submodularity_ratio(table, {0}, 0)
    with pytest.raises(ParameterError):
        submodularity_ratio(table, {5}, 1)
    with pytest.raises(ParameterError):
        SetFunctionTable(17, tuple(range(2**17)))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_coverage_functions_have_ratio_exactly_one(seed):
    inst = random_max_coverage(6, 8, 0.4, 3, RandomSource(seed))
    table = SetFunctionTable.from_coverage(inst)
    assert table.is_monotone
    rng = RandomSource(seed + 1)
    subset = rng.getrandbits(6)
    assert submodularity_ratio(table, subset, inst.k) == 1.0
    assert gamma_min(table, inst.k) == 1.0


def test_table_from_coverage_matches_direct_counts():
    inst = random_max_coverage(6, 8, 0.4, 3, RandomSource(77))
    table = SetFunctionTable.from_coverage(inst)
    for word in range(2**6):
        assert table.values[word] == len(set().union(*(inst.sets[i] for i in range(6) if word >> i & 1)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_greedy_gain_inequality_on_random_states(seed):
    # gain(x) >= (gamma / k) * (OPT - f(x)) for the raw coverage objective.
    rng = RandomSource(seed)
    inst = random_max_coverage(7, 9, 0.35, 4, rng)
    problem = make_problem(inst)
    opt = brute_force_opt(problem).fitness
    table = SetFunctionTable.from_coverage(inst)
    word = rng.getrandbits(7)
    while Solution(7, word).ones() >= inst.k:
        word = rng.getrandbits(7)
    x = Solution(7, word)
    gamma = submodularity_ratio(table, x, inst.k)
    _idx, gain = best_greedy_gain(x, inst)
    assert gain >= gamma / inst.k * (opt - table.values[word]) - 1e-9


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
    assert metrics.optimization == max(problem.probe(a)[0], problem.probe(b)[0])
    assert metrics.qd_score == problem.probe(a)[0] + problem.probe(b)[0]


def test_qd_metrics_all_infeasible_archive():
    inst = random_max_coverage(5, 6, 0.5, 2, RandomSource(1))
    problem = make_problem(inst)
    archive = Archive(problem.num_cells, problem.n, problem.direction)
    for x in (S("11100"), S("11110"), S("11111")):
        archive.consider(x.word, problem.probe(x))
    metrics = qd_metrics(archive)
    assert metrics.optimization is None
    assert metrics.coverage == 3
    assert metrics.qd_score == -3  # infeasible occupants score -1 each


def test_approximation_ratio_reference_values():
    assert approximation_ratio(121, 209) == 121 / 209
    assert approximation_ratio(32, 4) == 8.0
    assert approximation_ratio(4096, 11) == 2**12 / 11
    with pytest.raises(ParameterError):
        approximation_ratio(5, 0)
