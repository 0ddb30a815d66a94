"""Unit and distribution tests for solutions, randomness, and mutation."""

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qdpb.core import (
    FlipMask,
    RandomSource,
    Solution,
    bitwise_mutate,
    flip_sampler,
)
from qdpb.errors import ParameterError

bitstrings = st.text(alphabet="01", min_size=1, max_size=64)


# ---------------------------------------------------------------------------
# Solution representation


def test_solution_string_round_trip():
    s = Solution.from_string("10110")
    assert s.n == 5
    assert s.word == 0b01101  # char i is bit i
    assert s.to_string() == "10110"
    assert s.ones() == 3
    assert s.bits == (True, False, True, True, False)


@given(bitstrings)
def test_solution_string_round_trip_property(text):
    assert Solution.from_string(text).to_string() == text


def test_solution_rejects_bad_input():
    with pytest.raises(ParameterError):
        Solution(0, 0)
    with pytest.raises(ParameterError):
        Solution(3, 8)
    with pytest.raises(ParameterError):
        Solution(3, -1)
    with pytest.raises(ParameterError):
        Solution.from_string("")
    with pytest.raises(ParameterError):
        Solution.from_string("01x")


# ---------------------------------------------------------------------------
# RandomSource


def test_random_source_requires_integer_seed():
    for bad in (-1, 1.5, "7", None, True):
        with pytest.raises(ParameterError):
            RandomSource(bad)


def test_random_source_same_seed_same_stream():
    a, b = RandomSource(99), RandomSource(99)
    assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]
    assert a.getrandbits(64) == b.getrandbits(64)


def test_random_source_different_seeds_diverge():
    a, b = RandomSource(1), RandomSource(2)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


# ---------------------------------------------------------------------------
# Masks and mutation


def test_mask_position_out_of_range():
    with pytest.raises(ParameterError):
        FlipMask.from_positions(4, {4})


def test_mask_positions_view():
    m = FlipMask.from_positions(6, [5, 0, 2])
    assert m.positions == frozenset({0, 2, 5})
    assert len(m) == 3


@given(st.integers(1, 64), st.integers(0, 2**32))
def test_sample_flip_mask_shape(n, seed):
    flip = flip_sampler(n, RandomSource(seed))
    for _ in range(20):
        word = flip()
        assert 0 <= word < 1 << n
        mask = FlipMask(n, word)
        assert all(0 <= p < n for p in mask.positions)
        assert len(mask) == mask.word.bit_count()


def test_mutation_preserves_length_and_determinism():
    rng = RandomSource(4242)
    x = Solution(20, rng.getrandbits(20))
    children = [bitwise_mutate(x, rng) for _ in range(50)]
    assert all(c.n == 20 for c in children)
    rng2 = RandomSource(4242)
    x2 = Solution(20, rng2.getrandbits(20))
    assert [bitwise_mutate(x2, rng2) for _ in range(50)] == children


@given(st.integers(1, 70), st.integers(0, 2**32))
def test_bitwise_mutate_draws_the_flip_mask_stream(n, seed):
    # bitwise_mutate must flip what one bound flip_sampler draws, draw for
    # draw, and return x itself exactly when the flip word is 0; binding the
    # sampler draws nothing.
    rng, rng_flip = RandomSource(seed), RandomSource(seed)
    x = Solution(n, rng.getrandbits(n))
    rng_flip.getrandbits(n)
    before = rng_flip.getstate()
    flip = flip_sampler(n, rng_flip)
    assert rng_flip.getstate() == before
    for _ in range(30):
        child = bitwise_mutate(x, rng)
        mask = flip()
        assert child.word == x.word ^ mask
        assert (child is x) == (mask == 0)
        x = child
    assert rng.getstate() == rng_flip.getstate()


def plain_flip_sampler(n, rng):
    """The mutation law written plainly, independent of ``flip_sampler``: a
    flip count by ``bisect_right`` over the exact CDF, then that many
    distinct positions, each drawn with ``rng.randrange(n)`` and redrawn
    while it repeats one already drawn."""
    cdf = exact_flip_count_cdf(n)

    def flip():
        count = bisect_right(cdf, rng.random())
        positions = set()
        while len(positions) < count:
            positions.add(rng.randrange(n))
        return sum(1 << p for p in positions)

    return flip


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 13, 30, 60, 64, 65])
def test_flip_sampler_draws_the_plain_stream(n):
    # Same flip words and the same final generator state, draw for draw.
    for seed in (0, 7, 2024):
        rng, rng_plain = RandomSource(seed), RandomSource(seed)
        flip, plain = flip_sampler(n, rng), plain_flip_sampler(n, rng_plain)
        assert [flip() for _ in range(20_000)] == [plain() for _ in range(20_000)]
        assert rng.getstate() == rng_plain.getstate()


class ScriptedRandom:
    """``random()`` always returns ``u``; ``getrandbits`` counts 0, 1, 2, ...,
    so drawn positions never repeat."""

    def __init__(self, u):
        self.u = u
        self.drawn = 0

    def random(self):
        return self.u

    def getrandbits(self, k):
        self.drawn += 1
        return self.drawn - 1


@pytest.mark.parametrize("n", [1, 2, 3, 8, 30, 60])
def test_flip_count_at_the_cdf_boundaries(n):
    # u == cdf[j] counts j + 1 flips, as bisect_right does; just below
    # cdf[j] counts j.
    cdf = exact_flip_count_cdf(n)
    draws = cdf[:3] + [math.nextafter(c, 0) for c in cdf]
    for u in [u for u in draws if u < 1.0]:
        assert flip_sampler(n, ScriptedRandom(u))().bit_count() == bisect_right(cdf, u), u


def test_n_equal_one_always_flips():
    rng = RandomSource(3)
    x = Solution.from_string("0")
    for _ in range(20):
        x2 = bitwise_mutate(x, rng)
        assert x2.word == 1 - x.word  # flip probability 1/n is 1 here
        x = x2


# ---------------------------------------------------------------------------
# Mutation distribution against exact arithmetic oracles


def exact_flip_count_pmf(n):
    """P(|mask| = k) as exact fractions: C(n,k) (n-1)^(n-k) / n^n."""
    total = Fraction(n**n)
    return [Fraction(math.comb(n, k) * (n - 1) ** (n - k)) / total for k in range(n + 1)]


def exact_flip_count_cdf(n):
    """P(|mask| <= k) for k = 0..n, each exact sum rounded once to float."""
    return [float(p) for p in accumulate(exact_flip_count_pmf(n))]


def test_pmf_matches_exhaustive_enumeration():
    # Independent oracle: walk all 2^n inclusion patterns of a 6-bit mask and
    # accumulate the exact probability of each flip count.
    n = 6
    p = Fraction(1, n)
    by_count = [Fraction(0)] * (n + 1)
    for word in range(2**n):
        k = word.bit_count()
        by_count[k] += p**k * (1 - p) ** (n - k)
    assert by_count == exact_flip_count_pmf(n)


def _sampled_counts(n, samples, seed):
    flip = flip_sampler(n, RandomSource(seed))
    counts = [0] * (n + 1)
    for _ in range(samples):
        counts[flip().bit_count()] += 1
    return counts


def test_mean_flips_close_to_one():
    n, samples = 30, 100_000
    counts = _sampled_counts(n, samples, seed=12345)
    mean = sum(k * c for k, c in enumerate(counts)) / samples
    assert 0.97 <= mean <= 1.03


def test_copy_probability_matches_exact_value():
    # P(no flip) = (1 - 1/n)^n, frozen from exact integer arithmetic.
    n, samples = 30, 100_000
    p_copy = Fraction(29**30, 30**30)
    assert math.isclose(float(p_copy), 0.3616, abs_tol=5e-4)
    counts = _sampled_counts(n, samples, seed=98765)
    observed = counts[0] / samples
    sigma = math.sqrt(float(p_copy * (1 - p_copy)) / samples)
    assert abs(observed - float(p_copy)) <= 3 * sigma


@pytest.mark.parametrize("n", [5, 30])
def test_flip_count_distribution_chi_square(n):
    samples = 100_000
    counts = _sampled_counts(n, samples, seed=2024)
    pmf = exact_flip_count_pmf(n)
    # Pool the sparse tail so every expected count is at least 5.
    cut = n + 1
    while pmf[cut - 1] * samples < 5:
        cut -= 1
    observed = [counts[k] for k in range(cut)]
    expected = [float(pmf[k] * samples) for k in range(cut)]
    if cut <= n:
        observed.append(sum(counts[cut:]))
        expected.append(float(sum(pmf[cut:]) * samples))
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.01


@settings(max_examples=25)
@given(st.integers(2, 40), st.integers(0, 2**16))
def test_flip_counts_within_range(n, seed):
    flip = flip_sampler(n, RandomSource(seed))
    for _ in range(20):
        assert 0 <= flip().bit_count() <= n
