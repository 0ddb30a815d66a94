"""Instance generators, canonical hard families, and family recognition.

Two adversarial families are built here:

* ``example1_max_coverage``: a complete bipartite edge-coverage instance
  whose element universe is the edge set; choosing all left vertices is
  optimal, while filling the budget with right vertices creates a local
  optimum that few-bit moves cannot leave;
* ``example2_set_cover``: a star-shaped weighted cover with one expensive
  umbrella set and unit singletons; the umbrella alone is a full cover that
  can only be improved by flipping every variable at once.

Both have closed-form optima and canonical local optima, exposed so the
experiment harness can score ratios without brute force and seed populations
directly into the trap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import Solution
from .errors import ParameterError, ValidationError
from .problems import (
    MaxCoverageInstance,
    SetCoverInstance,
    _check_chunk_tables,
    default_penalty,
)

__all__ = [
    "Example1Params",
    "Example2Params",
    "example1_max_coverage",
    "example1_optimum",
    "example1_local_optimum",
    "example2_set_cover",
    "example2_optimum",
    "example2_local_optimum",
    "random_max_coverage",
    "random_set_cover",
    "identify_instance",
]


@dataclass(frozen=True)
class Example1Params:
    """Parameters of the bipartite edge-coverage family.

    ``delta`` is a rational imbalance in (0, 1/2): the left side has
    ``(1+delta)*n/3`` vertices and the right side ``(2-delta)*n/3``.  All of
    ``left``, ``right`` and ``delta*n`` must come out as positive integers, so
    not every (n, delta) pair is admissible.
    """

    n: int
    delta: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.delta, Fraction):
            object.__setattr__(self, "delta", Fraction(self.delta))
        if self.n < 1:
            raise ValidationError(f"n must be positive, got {self.n}")
        if not 0 < self.delta:
            raise ValidationError(f"delta must be positive, got {self.delta}")
        left = (1 + self.delta) * self.n / 3
        right = (2 - self.delta) * self.n / 3
        imbalance = self.delta * self.n
        for name, value in (("(1+delta)*n/3", left), ("(2-delta)*n/3", right), ("delta*n", imbalance)):
            if value.denominator != 1 or value <= 0:
                raise ValidationError(
                    f"{name} must be a positive integer, got {value} "
                    f"(n={self.n}, delta={self.delta})"
                )
        if left >= right:
            raise ValidationError(
                f"left side must be smaller than right side, got {left} >= {right}"
            )

    @property
    def left_count(self) -> int:
        return int((1 + self.delta) * self.n / 3)

    @property
    def right_count(self) -> int:
        return int((2 - self.delta) * self.n / 3)

    @property
    def k(self) -> int:
        """Selection budget: the number of left vertices."""
        return self.left_count

    @property
    def m_edges(self) -> int:
        return self.left_count * self.right_count

    @property
    def opt_fitness(self) -> int:
        """Coverage of the all-left optimum: left * right edges."""
        return self.left_count * self.right_count

    @property
    def local_fitness(self) -> int:
        """Coverage of any budget-full all-right selection: k * left edges."""
        return self.k * self.left_count


def example1_max_coverage(params: Example1Params) -> MaxCoverageInstance:
    """Build the bipartite instance; the universe is the edge set.

    Edge (left i, right j) has index ``i * right + j`` with both sides
    0-based, so left vertex i covers a contiguous block of edge indices and
    right vertex j covers a strided column.
    """
    _check_chunk_tables(params.n, params.m_edges)
    left, right = params.left_count, params.right_count
    sets = [tuple(range(i * right, (i + 1) * right)) for i in range(left)]
    sets += [tuple(i * right + j for i in range(left)) for j in range(right)]
    return MaxCoverageInstance(
        n=params.n, m_elements=params.m_edges, sets=tuple(sets), k=params.k
    )


def example1_optimum(params: Example1Params) -> Solution:
    """All left vertices: covers every edge."""
    return Solution(params.n, (1 << params.left_count) - 1)


def example1_local_optimum(params: Example1Params) -> Solution:
    """Canonical trapped solution: no left vertices, the first k right vertices."""
    left, k = params.left_count, params.k
    return Solution(params.n, ((1 << k) - 1) << left)


@dataclass(frozen=True)
class Example2Params:
    """Parameters of the star-shaped weighted cover family.

    ``n`` sets over ``n - 1`` elements: set 0 is an umbrella covering
    everything at weight 2^n, sets 1..n-1 are unit-weight singletons.  The
    range cap keeps every reachable fitness below 2^53.
    """

    n: int

    def __post_init__(self) -> None:
        if not 3 <= self.n <= 40:
            raise ValidationError(f"n must lie in 3..40, got {self.n}")

    @property
    def m_elements(self) -> int:
        return self.n - 1

    @property
    def opt_fitness(self) -> int:
        """Weight of the all-singletons cover."""
        return self.n - 1

    @property
    def local_fitness(self) -> int:
        """Weight of the umbrella-only cover."""
        return 2**self.n


def example2_set_cover(params: Example2Params) -> SetCoverInstance:
    n = params.n
    m = params.m_elements
    sets = (tuple(range(m)),) + tuple((e,) for e in range(m))
    weights = (2**n,) + (1,) * m
    return SetCoverInstance(
        n=n, m_elements=m, sets=sets, weights=weights,
        penalty=default_penalty(n, weights),
    )


def example2_optimum(params: Example2Params) -> Solution:
    """All singletons, no umbrella."""
    return Solution(params.n, ((1 << params.m_elements) - 1) << 1)


def example2_local_optimum(params: Example2Params) -> Solution:
    """Umbrella only: a full cover improvable only by flipping all n bits."""
    return Solution(params.n, 1)


# ---------------------------------------------------------------------------
# Random families

# The largest chance of drawing an empty set that a generator accepts.  An
# empty set is drawn again, so above it a set takes over 1,000 draws on average.
_EMPTY_SET_LIMIT = 0.999
# The most element draws a generator may expect to make.  At the 2.8-7M
# draws/s measured on a 2-vCPU guest (CPython 3.11) that is 0.6-1.5 s, and a
# peak of 63-322 MB with n=16 at densities 0.3-1.
_DRAW_LIMIT = 2**22


def random_max_coverage(
    n: int, m_elements: int, density: float, k: int, rng: random.Random
) -> MaxCoverageInstance:
    """Random instance: each set keeps each element with probability ``density``.

    Empty draws are redone so every candidate set covers something.
    """
    _check_chunk_tables(n, m_elements)
    _check_draws(n, m_elements, density)
    sets = tuple(_random_nonempty_set(m_elements, density, rng) for _ in range(n))
    return MaxCoverageInstance(n=n, m_elements=m_elements, sets=sets, k=k)


def random_set_cover(
    n: int,
    m_elements: int,
    density: float,
    max_weight: int,
    rng: random.Random,
) -> SetCoverInstance:
    """Random coverable instance with integer weights in 1..max_weight.

    After sampling, any element no set picked up is patched into a random
    set so the full-cover constraint is satisfiable.
    """
    _check_chunk_tables(n, m_elements)
    _check_draws(n, m_elements, density)
    if max_weight < 1:
        raise ParameterError(f"max_weight must be positive, got {max_weight}")
    members = [set(_random_nonempty_set(m_elements, density, rng)) for _ in range(n)]
    covered = set().union(*members)
    for e in range(m_elements):
        if e not in covered:
            members[rng.randrange(n)].add(e)
    sets = tuple(tuple(sorted(s)) for s in members)
    weights = tuple(rng.randint(1, max_weight) for _ in range(n))
    return SetCoverInstance(
        n=n, m_elements=m_elements, sets=sets, weights=weights,
        penalty=default_penalty(n, weights),
    )


def _check_draws(n: int, m_elements: int, density: float) -> None:
    """Refuse, before a generator draws anything, fewer than one set, a density
    at which sets are mostly empty or more than ``_DRAW_LIMIT`` expected element
    draws: each of the ``n`` sets draws once per element, and again while it is empty."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if not 0 < density <= 1:
        raise ParameterError(f"density must lie in (0, 1], got {density}")
    empty = (1 - density) ** m_elements if m_elements >= 1 else 1.0
    if empty > _EMPTY_SET_LIMIT:
        raise ParameterError(
            f"m_elements={m_elements} at density={density} draws an empty set with "
            f"probability over {_EMPTY_SET_LIMIT}, and empty sets are drawn again"
        )
    draws = n * m_elements / (1 - empty)
    if draws > _DRAW_LIMIT:
        raise ParameterError(
            f"n={n}, m_elements={m_elements} at density={density} would make about "
            f"{draws:,.0f} element draws, over the {_DRAW_LIMIT:,} limit"
        )


def _random_nonempty_set(m_elements: int, density: float, rng: random.Random) -> tuple[int, ...]:
    while True:
        s = tuple(e for e in range(m_elements) if rng.random() < density)
        if s:
            return s


# ---------------------------------------------------------------------------
# Structural identification


def identify_instance(inst) -> Example1Params | Example2Params | None:
    """Recognize instances produced by the two adversarial generators.

    Recovers candidate parameters from the shape and accepts only if
    regeneration reproduces the instance exactly; anything else returns None.
    The universe sizes are compared first: regenerating a large family could
    trip its chunk-table size guard on an instance that is not that family.
    """
    if isinstance(inst, MaxCoverageInstance):
        delta = Fraction(3 * inst.k - inst.n, inst.n)
        try:
            params = Example1Params(inst.n, delta)
        except ValidationError:
            return None
        if params.m_edges == inst.m_elements and example1_max_coverage(params) == inst:
            return params
        return None
    if isinstance(inst, SetCoverInstance):
        try:
            params = Example2Params(inst.n)
        except ValidationError:
            return None
        if params.m_elements == inst.m_elements and example2_set_cover(params) == inst:
            return params
        return None
    return None
