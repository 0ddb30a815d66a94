"""Tests for the two problem reformulations, frozen against hand-checked values."""

import dataclasses
import functools
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdpb import problems
from qdpb.analysis import reference_probe
from qdpb.core import RandomSource, Solution
from qdpb.errors import ParameterError, ValidationError
from qdpb.instances import (
    Example1Params,
    Example2Params,
    example1_max_coverage,
    example2_set_cover,
    random_max_coverage,
    random_set_cover,
)
from qdpb.problems import (
    Direction,
    MaxCoverageInstance,
    SetCoverInstance,
    comparison,
    default_penalty,
    make_max_coverage_problem,
    make_problem,
    make_set_cover_problem,
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
    problem = make_max_coverage_problem(tiny_coverage)
    for text, fitness in (("110", 3), ("011", 3), ("010", 2), ("000", 0), ("111", -1)):
        assert problem.probe(S(text))[0] == fitness  # "111" is over the size cap
        assert reference_probe(S(text), tiny_coverage)[0] == fitness


def test_coverage_descriptor_counts_ones(tiny_coverage):
    problem = make_max_coverage_problem(tiny_coverage)
    assert problem.probe(S("000"))[1] == 0
    assert problem.probe(S("101"))[1] == 2
    assert problem.num_cells == 4
    assert problem.probe(S("110"))[2]
    assert not problem.probe(S("111"))[2]
    assert reference_probe(S("111"), tiny_coverage) == (-1, 3, False)


def test_coverage_count_matches_set_oracle(tiny_coverage):
    problem = make_max_coverage_problem(tiny_coverage)
    sets = tiny_coverage.sets
    for word in range(8):
        x = Solution(3, word)
        if x.ones() > tiny_coverage.k:
            continue
        expected = len(set().union(*(sets[i] for i in range(3) if word >> i & 1), set()))
        assert problem.probe(x)[0] == expected


def test_coverage_length_mismatch(tiny_coverage):
    problem = make_max_coverage_problem(tiny_coverage)
    with pytest.raises(ParameterError, match="solution has 4 variables, problem has 3"):
        problem.probe(S("1100"))
    with pytest.raises(ParameterError):
        reference_probe(S("11"), tiny_coverage)


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
    problem = make_set_cover_problem(star_cover5)
    # "01100": two singletons cover 2 of 4 elements, so 2 are penalised.
    for text, fitness in (("01111", 4), ("10000", 32), ("00000", 644), ("11111", 36), ("01100", 2 + 161 * 2)):
        assert problem.probe(S(text))[0] == fitness
        assert reference_probe(S(text), star_cover5)[0] == fitness


def test_set_cover_descriptor(star_cover5):
    problem = make_set_cover_problem(star_cover5)
    assert problem.probe(S("01100"))[1] == 2
    assert problem.probe(S("10000"))[1] == 4
    assert problem.num_cells == 5
    assert problem.direction is Direction.MINIMIZE
    assert problem.probe(S("10000"))[2]
    assert not problem.probe(S("01100"))[2]
    assert reference_probe(S("01100"), star_cover5) == (2 + 161 * 2, 2, False)


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


def test_uncovered_elements_are_counted_not_listed():
    # Two sets over 2^18 elements cover only the last one.
    m = 2**18
    with pytest.raises(ValidationError) as err:
        SetCoverInstance(n=2, m_elements=m, sets=((m - 1,),) * 2, weights=(1, 1), penalty=3)
    message = str(err.value)
    assert len(message.encode()) < 1000
    assert f"{m - 1} element(s)" in message
    assert "the lowest [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]" in message


def test_masks_of_a_large_set_build_in_linear_time():
    m = 2**18
    sets = (tuple(range(m)),)
    start = time.perf_counter()
    coverage = MaxCoverageInstance(n=1, m_elements=m, sets=sets, k=1)
    cover = SetCoverInstance(n=1, m_elements=m, sets=sets, weights=(1,), penalty=2)
    masks = (coverage.set_masks, cover.set_masks)
    assert time.perf_counter() - start < 0.5
    assert masks == (((1 << m) - 1,),) * 2
    assert problems.make_element_masks([(), (9, 0, 3), (7,)]) == (0, 0b1000001001, 0b10000000)


def test_oversize_chunk_tables_are_refused_before_any_is_built(monkeypatch):
    # Both instances are cheap to hold, but their probe tables would not be:
    # 8·256 masks of 2^22 bits (1 GiB), and 257·256 masks of 2^16 bits
    # (514 MiB) with as many weight sums.
    m = 2**22
    coverage = MaxCoverageInstance(n=64, m_elements=m, sets=((m - 1,),) * 64, k=3)
    m, n = 2**16, 2056
    cover = SetCoverInstance(
        n=n,
        m_elements=m,
        sets=(tuple(range(m)),) + tuple((e,) for e in range(n - 1)),
        weights=(1,) * n,
        penalty=default_penalty(n, (1,)),
    )

    def no_tables(values, combine):
        raise AssertionError("a chunk table was built")

    monkeypatch.setattr(problems, "_chunk_tables", no_tables)
    for inst, estimate in ((coverage, "1024 MiB"), (cover, "514 MiB")):
        with pytest.raises(ParameterError, match=f"about {estimate}, over the 512 MiB limit"):
            make_problem(inst)


# ---------------------------------------------------------------------------
# Direction helper and probe coherence


def test_comparison_truth_table():
    assert comparison(Direction.MAXIMIZE)(2, 1)
    assert not comparison(Direction.MAXIMIZE)(1, 1)
    assert comparison(Direction.MAXIMIZE, strict=False)(1, 1)
    assert not comparison(Direction.MAXIMIZE, strict=False)(1, 2)
    assert comparison(Direction.MINIMIZE)(1, 2)
    assert not comparison(Direction.MINIMIZE)(2, 2)
    assert comparison(Direction.MINIMIZE, strict=False)(2, 2)
    assert not comparison(Direction.MINIMIZE, strict=False)(2, 1)


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


def probed_words(n, data):
    """Words that look up every entry of the probe's 8-bit chunk tables.

    A wrong entry shows only on the words whose byte selects it, 1 in 256
    random words.  So: every word for small n; else every word confined to
    one chunk, plus one drawn word that mixes chunks.
    """
    if n <= 9:
        return range(2**n)
    one_chunk = [byte << base for base in range(0, n, 8) for byte in range(1, 1 << min(8, n - base))]
    return [*one_chunk, data.draw(st.integers(0, 2**n - 1))]


def assert_probe_matches_reference(inst, data):
    problem = make_problem(inst)
    for word in probed_words(inst.n, data):
        x = Solution(inst.n, word)
        probed = problem.probe_word(word)
        assert probed == problem.probe(x) == reference_probe(x, inst)


def test_replace_derives_probe_from_a_new_probe_word(tiny_coverage):
    base = make_problem(tiny_coverage)
    x = S("110")
    calls = []

    def probe_word(word):
        calls.append(word)
        return base.probe_word(word)

    swapped = dataclasses.replace(base, probe_word=probe_word)
    assert swapped.probe(x) == base.probe(x) == base.probe_word(x.word)
    assert calls == [x.word]
    # The derived probe checks the length, also after the replace.
    with pytest.raises(ParameterError, match="solution has 4 variables, problem has 3"):
        swapped.probe(S("1100"))
    assert calls == [x.word]
    # A given probe is kept, also when another field is replaced later; so is
    # a functools.wraps wrapper of the derived probe.
    def probe(_x):
        return -1, 0, False

    custom = dataclasses.replace(base, probe=probe)
    assert custom.probe is probe and dataclasses.replace(custom, known_opt=3).probe is probe
    assert custom.probe_word is base.probe_word
    wrapped = functools.wraps(base.probe)(lambda x: base.probe(x))
    traced = dataclasses.replace(base, probe=wrapped)
    assert traced.probe is wrapped and dataclasses.replace(traced, known_opt=3).probe is wrapped
    # Replacing the probe_word under a wrapper derives the probe again.
    calls.clear()
    assert dataclasses.replace(traced, probe_word=probe_word).probe(x) == base.probe(x)
    assert calls == [x.word]


@given(coverage_instances(), st.data())
def test_max_coverage_probe_matches_reference(inst, data):
    assert_probe_matches_reference(inst, data)


@given(cover_instances(), st.data())
def test_set_cover_probe_matches_reference(inst, data):
    assert_probe_matches_reference(inst, data)


# ---------------------------------------------------------------------------
# The result table below the limit, the chunk probe above it


def result_table(problem):
    """The tuple ``probe_word`` looks words up in, or None for the chunk probe."""
    table = getattr(problem.probe_word, "__self__", None)
    return table if isinstance(table, tuple) else None


BIPARTITE12 = example1_max_coverage(Example1Params(12, Fraction(1, 4)))
UMBRELLA12 = example2_set_cover(Example2Params(12))


@pytest.mark.parametrize(
    "inst, tabulated",
    [
        (BIPARTITE12, True),
        (UMBRELLA12, True),
        (random_max_coverage(13, 11, 0.3, 4, RandomSource(31)), False),
        (random_set_cover(13, 11, 0.3, 7, RandomSource(32)), False),
    ],
    ids=["bipartite12", "umbrella12", "random-max-coverage13", "random-set-cover13"],
)
def test_every_word_matches_the_reference_on_both_sides_of_the_table_limit(inst, tabulated):
    assert (inst.n <= problems._TABLE_LIMIT) == tabulated
    problem = make_problem(inst)
    table = result_table(problem)
    assert (table is not None) == tabulated
    if tabulated:
        assert len(table) == 2**inst.n
        # probe_word stays unchecked: a negative word indexes from the end.
        assert problem.probe_word(-1) == problem.probe_word(2**inst.n - 1)
    for word in range(2**inst.n):
        assert problem.probe_word(word) == reference_probe(Solution(inst.n, word), inst), word


@pytest.mark.parametrize("inst", [BIPARTITE12, UMBRELLA12], ids=["bipartite12", "umbrella12"])
def test_equal_results_share_one_object_in_the_table(inst):
    table = result_table(make_problem(inst))
    assert len(set(map(id, table))) == len(set(table)) == 24


# ---------------------------------------------------------------------------
# The chunk probe's shift-and-mask walk and its shared over-size results


def sampled_words(n, seed, count=20_000):
    """``count`` seeded words, each with a number of ones drawn uniformly from
    0..n, then 0, all ones and every word whose only set bits lie in the
    partial last chunk."""
    rng = RandomSource(seed)
    words = [sum(1 << i for i in rng.sample(range(n), rng.randint(0, n))) for _ in range(count)]
    base = n // 8 * 8
    return [*words, 0, 2**n - 1, *(low << base for low in range(1, 1 << (n - base)))]


BIPARTITE60 = example1_max_coverage(Example1Params(60, Fraction(1, 10)))
RANDOM_COVERAGE20 = random_max_coverage(20, 40, 0.15, 5, RandomSource(52))


@pytest.mark.parametrize(
    "inst",
    [
        random_max_coverage(17, 24, 0.2, 6, RandomSource(51)),
        RANDOM_COVERAGE20,
        random_set_cover(17, 20, 0.2, 9, RandomSource(53)),
        random_set_cover(20, 30, 0.15, 9, RandomSource(54)),
        BIPARTITE60,
    ],
    ids=["random-max-coverage17", "random-max-coverage20", "random-set-cover17", "random-set-cover20", "bipartite60"],
)
def test_chunk_walk_matches_the_reference_on_sampled_words(inst):
    assert inst.n > problems._TABLE_LIMIT and inst.n % 8  # the chunk probe, with a partial last chunk
    probe_word = make_problem(inst).probe_word
    for word in sampled_words(inst.n, seed=inst.n):
        assert probe_word(word) == reference_probe(Solution(inst.n, word), inst), word


@pytest.mark.parametrize(
    "inst", [RANDOM_COVERAGE20, BIPARTITE60, BIPARTITE12], ids=["random-max-coverage20", "bipartite60", "bipartite12"]
)
def test_over_size_results_are_shared_per_count_of_ones(inst):
    probe_word = make_problem(inst).probe_word
    for ones in range(inst.k + 1, inst.n + 1):
        block = (1 << ones) - 1
        low, high = probe_word(block), probe_word(block << (inst.n - ones))
        assert low == (-1, ones, False) == reference_probe(Solution(inst.n, block), inst)
        assert high is low, ones
