"""Unit and distribution tests for solutions, randomness, and mutation."""

import math
import random
import time
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdpb.core import (
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
    # int() would read these as base-2 numbers; the string form refuses them.
    for text in ("1_0", " 01", "01\n", "+1"):
        with pytest.raises(ParameterError):
            Solution.from_string(text)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65])
def test_solution_strings_match_the_bit_by_bit_spelling(n):
    rng = RandomSource(n)
    for word in (0, (1 << n) - 1, 1, 1 << (n - 1), 0x5555555555555555555 % (1 << n), rng.getrandbits(n)):
        text = "".join("1" if (word >> i) & 1 else "0" for i in range(n))
        x = Solution(n, word)
        assert x.to_string() == text
        assert x.bits == tuple(bool((word >> i) & 1) for i in range(n))
        assert Solution.from_string(text) == x
        assert Solution.from_string(text).word == sum(1 << i for i, c in enumerate(text) if c == "1")


def test_long_solution_strings_convert_in_linear_time():
    n = 200_000
    word = RandomSource(3).getrandbits(n) | (1 << (n - 1))
    start = time.perf_counter()
    text = Solution(n, word).to_string()
    x = Solution.from_string(text)
    bits = x.bits
    assert time.perf_counter() - start < 0.5
    assert x.word == word and len(text) == len(bits) == n
    assert bits[n - 1] and text[n - 1] == "1"


# ---------------------------------------------------------------------------
# RandomSource


def test_random_source_requires_integer_seed():
    for bad in (-1, 1.5, "7", None, True):
        with pytest.raises(ParameterError):
            RandomSource(bad)


def test_random_source_same_seed_same_stream():
    a, b = RandomSource(99), RandomSource(99)
    assert type(a) is random.Random
    assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]
    assert a.getrandbits(64) == b.getrandbits(64)


def test_random_source_different_seeds_diverge():
    a, b = RandomSource(1), RandomSource(2)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


# ---------------------------------------------------------------------------
# Masks and mutation


@given(st.integers(1, 64), st.integers(0, 2**32))
def test_sample_flip_mask_shape(n, seed):
    flip = flip_sampler(n, RandomSource(seed))
    for _ in range(20):
        assert 0 <= flip() < 1 << n


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


def test_n_equal_one_always_flips():
    rng = RandomSource(3)
    x = Solution.from_string("0")
    for _ in range(20):
        x2 = bitwise_mutate(x, rng)
        assert x2.word == 1 - x.word  # flip probability 1/n is 1 here
        x = x2


# ---------------------------------------------------------------------------
# Mutation distribution against exact arithmetic oracles.  The sampled law
# is checked by c7 (acceptance._check_mutation_law), which chi-square-tests
# flip_sampler's counts at n = 5 and 30.  The stream pin above ties
# flip_sampler to the plain spelling, which draws its counts from the exact
# CDF below, and test_algorithms pins the run loop to flip_sampler.


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
