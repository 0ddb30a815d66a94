"""Bit-string solutions, seeded randomness, and the standard bit-flip mutation.

Solutions are fixed-length binary vectors stored as Python ints (bit ``i`` of
``word`` is variable ``i``), which makes XOR-based mutation and set-union
evaluation cheap enough for multi-million-evaluation runs in pure Python.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import ParameterError

__all__ = [
    "Solution",
    "RandomSource",
    "FlipMask",
    "flip_sampler",
    "bitwise_mutate",
]


@dataclass(frozen=True, slots=True)
class Solution:
    """An assignment of ``n`` binary decision variables.

    ``Solution(4, 0b0110)`` selects items 1 and 2.  In string form the
    character at position ``i`` is variable ``i``, so the same solution reads
    ``"0110"``.  Instances are immutable and hashable; operators return new
    objects.
    """

    n: int
    word: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"need at least one variable, got n={self.n}")
        if not 0 <= self.word < (1 << self.n):
            raise ParameterError(
                f"word {self.word:#x} does not fit in {self.n} bits"
            )

    def ones(self) -> int:
        """Number of selected variables (Hamming weight)."""
        return self.word.bit_count()

    @property
    def bits(self) -> tuple[bool, ...]:
        return tuple(c == "1" for c in self.to_string())

    @classmethod
    def from_string(cls, text: str) -> "Solution":
        if not text or any(c not in "01" for c in text):
            raise ParameterError(f"expected a non-empty string over 0/1, got {text!r}")
        return cls(len(text), int(text[::-1], 2))

    def to_string(self) -> str:
        return format(self.word, f"0{self.n}b")[::-1]

    def __str__(self) -> str:
        return self.to_string()


def RandomSource(seed: int) -> random.Random:
    """``random.Random(seed)``, once ``seed`` is checked to be a non-negative int.

    CPython documents the Mersenne Twister and its ``random()`` /
    ``getrandbits()`` streams as reproducible across releases and platforms,
    so one seed pins down an entire run.
    """
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return random.Random(seed)


@dataclass(frozen=True, slots=True)
class FlipMask:
    """A flip word of ``n`` bits, 0 (a copy) included.  Nothing in qdpb
    builds one; the benchmark's tracer still counts constructions."""

    n: int
    word: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"need at least one variable, got n={self.n}")
        if not 0 <= self.word < (1 << self.n):
            raise ParameterError(f"mask {self.word:#x} does not fit in {self.n} bits")


@lru_cache(maxsize=None)
def flip_count_cdf(n: int) -> tuple[float, ...]:
    """P(Binomial(n, 1/n) <= k) for k = 0..n, from exact integer tallies.

    Entry k is sum_{j<=k} C(n,j) (n-1)^(n-j) / n^n evaluated with arbitrary
    precision integers before the single rounding to float.
    """
    total = n**n
    acc = 0
    cdf = []
    for k in range(n + 1):
        acc += math.comb(n, k) * (n - 1) ** (n - k)
        cdf.append(acc / total)
    cdf[-1] = 1.0  # guard against rounding ever stranding a uniform draw
    return tuple(cdf)


def flip_sampler(n: int, rng: random.Random) -> Callable[[], int]:
    """A function that draws one flip word per call: each of the ``n`` bits set
    independently with probability 1/n.

    Each call draws a binomial flip count, then that many distinct uniform
    positions.  This is the mutation law on its own; the run loop,
    ``algorithms._run``, draws the same stream inline to save a call per
    offspring, and a test pins it to this function draw for draw.  This
    standard decomposition is identical in distribution to n independent
    coin flips but needs about two draws per call instead of n.  The count is
    ``bisect_right(cdf, u)`` for one uniform ``u``; the two commonest counts
    are read off the first two CDF entries (0 flips, a copy, and 1 flip each
    take about 37 % of calls for large n), and only the rest bisect.  This
    draws the same stream as bisecting every time.  The count's CDF,
    ``n.bit_length()`` and the ``rng`` methods are bound here, once per
    sampler; binding draws nothing.
    """
    if n < 1:
        raise ParameterError(f"need at least one variable, got n={n}")
    cdf = flip_count_cdf(n)
    cdf0, cdf1 = cdf[0], cdf[1]
    random = rng.random
    getrandbits = rng.getrandbits
    k = n.bit_length()

    def flip() -> int:
        u = random()
        if u < cdf0:
            return 0
        # The first position, which cannot repeat: rng.randrange(n), inlined
        # here and below because it runs once per drawn position.
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        word = 1 << r
        if u < cdf1:
            return word
        count = bisect_right(cdf, u) - 1
        while count:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            bit = 1 << r
            if not word & bit:
                word |= bit
                count -= 1
        return word

    return flip


def bitwise_mutate(x: Solution, rng: random.Random) -> Solution:
    """Standard bit-wise mutation: flip each position independently with probability 1/n.

    Draws the same stream as one call of ``flip_sampler(x.n, rng)``.
    When no position flips (probability about 1/e) the offspring is a copy,
    and ``x`` itself is returned: callers may test ``child is x`` to reuse
    what they know about ``x``.
    """
    mask = flip_sampler(x.n, rng)()
    if not mask:
        return x
    return Solution(x.n, x.word ^ mask)
