"""Exact oracles and structural diagnostics.

Everything here is deliberately slow-but-certain: exhaustive enumeration with
explicit size guards, exact integer/rational arithmetic where results feed
assertions, and closed-form bounds for the two adversarial families.  These
routines are the reference the search engines are judged against, so none of
them share code with the engines' hot paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional, Union

from .core import Solution
from .errors import ParameterError, StateError, ValidationError
from .instances import Example1Params, Example2Params
from .problems import (
    Fitness,
    MaxCoverageInstance,
    Problem,
    SetCoverInstance,
    comparison,
)
from .algorithms import Archive

__all__ = [
    "OracleResult",
    "reference_probe",
    "QdMetrics",
    "SetFunctionTable",
    "brute_force_opt",
    "best_greedy_gain",
    "greedy_max_coverage",
    "greedy_set_cover",
    "submodularity_ratio",
    "gamma_min",
    "escape_radius",
    "trap_escape_probability_bound",
    "qd_metrics",
    "approximation_ratio",
]

_BRUTE_FORCE_LIMIT = 24
_TABLE_LIMIT = 16
_ESCAPE_LIMIT = 20


@dataclass(frozen=True)
class OracleResult:
    """Outcome of exhaustive optimization: one optimum, its fitness, and how many optima exist."""

    solution: Solution
    fitness: Fitness
    optima_count: int


def brute_force_opt(problem: Problem) -> OracleResult:
    """Enumerate all 2^n solutions and return the best feasible one.

    Ties are counted; the reported solution is the one with the numerically
    smallest bit word.  Guarded to n <= 24.
    """
    n = problem.n
    if n > _BRUTE_FORCE_LIMIT:
        raise ParameterError(f"brute force is limited to n <= {_BRUTE_FORCE_LIMIT}, got n={n}")
    probe_word = problem.probe_word
    better = comparison(problem.direction)
    best_word: Optional[int] = None
    best_fitness: Optional[Fitness] = None
    count = 0
    for word in range(1 << n):
        fitness, _cell, feasible = probe_word(word)
        if not feasible:
            continue
        if best_fitness is None or better(fitness, best_fitness):
            best_word, best_fitness, count = word, fitness, 1
        elif fitness == best_fitness:
            count += 1
    if best_word is None:
        raise StateError("no feasible solution exists")
    return OracleResult(Solution(n, best_word), best_fitness, count)


def reference_probe(
    x: Solution, inst: Union[MaxCoverageInstance, SetCoverInstance]
) -> tuple[Fitness, int, bool]:
    """``(fitness, cell, feasible)`` of ``x``, computed with Python sets over ``inst.sets``.

    The independent reference for ``Problem.probe_word``: it reads the selected
    sets one by one and shares no code with the problems' chunk tables.
    """
    if x.n != inst.n:
        raise ParameterError(f"solution has {x.n} variables, instance has {inst.n}")
    selected = [i for i, bit in enumerate(x.bits) if bit]
    covered = set().union(*(inst.sets[i] for i in selected))
    if isinstance(inst, MaxCoverageInstance):
        if len(selected) > inst.k:
            return -1, len(selected), False
        return len(covered), len(selected), True
    weight = sum(inst.weights[i] for i in selected)
    missing = inst.m_elements - len(covered)
    return weight + inst.penalty * missing, len(covered), missing == 0


# ---------------------------------------------------------------------------
# Greedy baselines


def best_greedy_gain(x: Solution, inst: MaxCoverageInstance) -> tuple[int, int]:
    """The 0-bit whose flip adds the most coverage, ignoring the size cap.

    Works on the raw (unconstrained) coverage function, which is the quantity
    greedy arguments reason about.  Ties go to the lowest index.  Returns
    ``(index, gain)``.
    """
    if x.n != inst.n:
        raise ParameterError(f"solution has {x.n} variables, instance has {inst.n}")
    if x.word == (1 << x.n) - 1:
        raise ParameterError("every set is already selected")
    masks = inst.set_masks
    covered = 0
    word = x.word
    while word:
        low = word & -word
        covered |= masks[low.bit_length() - 1]
        word ^= low
    base = covered.bit_count()
    best_index, best_gain = -1, -1
    for i in range(inst.n):
        if (x.word >> i) & 1:
            continue
        gain = (covered | masks[i]).bit_count() - base
        if gain > best_gain:
            best_index, best_gain = i, gain
    return best_index, best_gain


def greedy_max_coverage(inst: MaxCoverageInstance) -> Solution:
    """k rounds of best single-set gain from the empty selection."""
    x = Solution(inst.n, 0)
    for _ in range(inst.k):
        index, _gain = best_greedy_gain(x, inst)
        x = Solution(inst.n, x.word | (1 << index))
    return x


def greedy_set_cover(inst: SetCoverInstance) -> Solution:
    """Classic price-per-new-element greedy; ties go to the lowest index.

    Ratios are compared by cross-multiplication, so weight/coverage ties are
    resolved exactly rather than through float rounding.
    """
    masks = inst.set_masks
    weights = inst.weights
    full = (1 << inst.m_elements) - 1
    word = 0
    covered = 0
    while covered != full:
        covered_count = covered.bit_count()
        best_index = -1
        best_weight = best_new = 1  # placeholder ratio 1/1, overwritten on first candidate
        for i in range(inst.n):
            if (word >> i) & 1:
                continue
            new = (covered | masks[i]).bit_count() - covered_count
            if new == 0:
                continue
            if best_index < 0 or weights[i] * best_new < best_weight * new:
                best_index, best_weight, best_new = i, weights[i], new
        if best_index < 0:  # unreachable: instances are validated coverable
            raise StateError("no set covers a new element")
        word |= 1 << best_index
        covered |= masks[best_index]
    return Solution(inst.n, word)


# ---------------------------------------------------------------------------
# Submodularity ratio


@dataclass(frozen=True)
class SetFunctionTable:
    """Explicit value table of a set function on at most 16 items.

    ``values[mask]`` is the function value on the subset encoded by ``mask``.
    """

    n: int
    values: tuple[Fitness, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= _TABLE_LIMIT:
            raise ParameterError(f"tables are limited to 1 <= n <= {_TABLE_LIMIT}, got n={self.n}")
        if len(self.values) != 1 << self.n:
            raise ValidationError(
                f"expected {1 << self.n} values for n={self.n}, got {len(self.values)}"
            )

    @classmethod
    def from_coverage(cls, inst: MaxCoverageInstance) -> "SetFunctionTable":
        """Tabulate raw coverage (the size cap is not part of the set function)."""
        if inst.n > _TABLE_LIMIT:
            raise ParameterError(f"tables are limited to n <= {_TABLE_LIMIT}, got n={inst.n}")
        masks = inst.set_masks
        # Build unions incrementally: union(word) = union(word - lowbit) | mask(lowbit).
        unions = [0] * (1 << inst.n)
        values = [0] * (1 << inst.n)
        for word in range(1, 1 << inst.n):
            low = word & -word
            unions[word] = unions[word ^ low] | masks[low.bit_length() - 1]
            values[word] = unions[word].bit_count()
        return cls(inst.n, tuple(values))

    @cached_property
    def is_monotone(self) -> bool:
        values = self.values
        for word in range(1 << self.n):
            for i in range(self.n):
                if not (word >> i) & 1 and values[word | (1 << i)] < values[word]:
                    return False
        return True

    def ensure_monotone(self) -> None:
        if not self.is_monotone:
            raise ValidationError("set function is not monotone")


def _as_item_mask(subset, n: int) -> int:
    if isinstance(subset, Solution):
        if subset.n != n:
            raise ParameterError(f"solution has {subset.n} variables, table has {n}")
        return subset.word
    if isinstance(subset, int):
        if not 0 <= subset < (1 << n):
            raise ParameterError(f"subset mask {subset:#x} does not fit in {n} bits")
        return subset
    mask = 0
    for item in subset:
        if not 0 <= item < n:
            raise ParameterError(f"item {item} outside 0..{n - 1}")
        mask |= 1 << item
    return mask


def submodularity_ratio(
    table: SetFunctionTable,
    subset: Union[Solution, int, Iterable[int]],
    cardinality: int,
) -> float:
    """Exact worst-case ratio of summed singleton gains to the joint gain.

    Minimizes over every base set L inside ``subset`` and every disjoint
    addition S with ``1 <= |S| <= cardinality`` whose joint gain is positive;
    pairs with zero joint gain carry no constraint and are skipped.  Returns 1
    when no pair constrains the function.  Requires a monotone table.
    """
    if cardinality < 1:
        raise ParameterError(f"cardinality must be positive, got {cardinality}")
    table.ensure_monotone()
    n = table.n
    values = table.values
    X = _as_item_mask(subset, n)
    minimum: Optional[float] = None
    L = X
    while True:  # all submasks of X, including empty and X itself
        f_L = values[L]
        outside = [i for i in range(n) if not (L >> i) & 1]
        max_size = min(cardinality, len(outside))
        for size in range(1, max_size + 1):
            for combo in combinations(outside, size):
                S = 0
                for i in combo:
                    S |= 1 << i
                joint = values[L | S] - f_L
                if joint <= 0:
                    continue
                singles = sum(values[L | (1 << i)] - f_L for i in combo)
                ratio = singles / joint
                if minimum is None or ratio < minimum:
                    minimum = ratio
        if L == 0:
            break
        L = (L - 1) & X
    return 1.0 if minimum is None else minimum


def gamma_min(table: SetFunctionTable, k: int) -> float:
    """Worst submodularity ratio over all bases of size k-1 with additions up to size k."""
    if not 1 <= k <= table.n:
        raise ParameterError(f"k must lie in 1..{table.n}, got {k}")
    worst = 1.0
    for base in combinations(range(table.n), k - 1):
        ratio = submodularity_ratio(table, base, k)
        if ratio < worst:
            worst = ratio
    return worst


# ---------------------------------------------------------------------------
# Local-optimum structure


def escape_radius(x: Solution, problem: Problem) -> int:
    """Hamming distance to the nearest strictly better solution.

    Scores distance shells outward with ``probe_word``; returns n+1 when
    nothing beats ``x`` anywhere (``x`` is globally optimal).  Guarded to n <= 20.
    """
    n = problem.n
    if n > _ESCAPE_LIMIT:
        raise ParameterError(f"escape radius search is limited to n <= {_ESCAPE_LIMIT}, got n={n}")
    base = problem.probe(x)[0]
    probe_word = problem.probe_word
    better = comparison(problem.direction)
    for distance in range(1, n + 1):
        for flips in combinations(range(n), distance):
            word = x.word
            for i in flips:
                word ^= 1 << i
            if better(probe_word(word)[0], base):
                return distance
    return n + 1


def _bipartite_minimal_escapes(params: Example1Params) -> list[tuple[int, int]]:
    """Pareto-minimal (adds, net deletes) pairs that strictly improve the trapped solution.

    From the all-right local optimum, a mutation that adds ``a`` left vertices
    must net-delete ``e >= a`` chosen right vertices to stay within budget and
    improves coverage iff a*(right-k) > e*(k-a).
    """
    k = params.k
    right = params.right_count
    improving = [
        (a, e)
        for a in range(1, k + 1)
        for e in range(a, k + 1)
        if a * (right - k) > e * (k - a)
    ]
    return [
        (a, e)
        for (a, e) in improving
        if not any(
            a2 <= a and e2 <= e and (a2, e2) != (a, e) for (a2, e2) in improving
        )
    ]


def trap_escape_probability_bound(params: Union[Example1Params, Example2Params]) -> float:
    """Per-offspring probability bound for leaving the family's local optimum.

    Star cover: the only improving move flips all n bits at once, probability
    exactly n^-n.  Bipartite coverage: a union bound over the Pareto-minimal
    improving (adds, deletes) patterns, each term counting position choices
    times n^-(flips).  Computed in exact rationals, rounded once at the end.
    """
    if isinstance(params, Example2Params):
        return float(Fraction(1, params.n**params.n))
    n = params.n
    k = params.k
    total = Fraction(0)
    for adds, deletes in _bipartite_minimal_escapes(params):
        total += Fraction(
            math.comb(k, adds) * math.comb(k, deletes), n ** (adds + deletes)
        )
    return float(total)


# ---------------------------------------------------------------------------
# Scoring


@dataclass(frozen=True)
class QdMetrics:
    """Archive summary: best feasible fitness (None if none), cells filled, fitness sum."""

    optimization: Optional[Fitness]
    coverage: int
    qd_score: Fitness


def qd_metrics(archive: Archive) -> QdMetrics:
    """Read from the ``probe_word`` results the archive kept; probes nothing."""
    better = comparison(archive.direction)
    best: Optional[Fitness] = None
    total: Fitness = 0
    for result in archive.results:
        if result is None:
            continue
        fitness, _cell, feasible = result
        total += fitness
        if feasible and (best is None or better(fitness, best)):
            best = fitness
    return QdMetrics(optimization=best, coverage=len(archive), qd_score=total)


def approximation_ratio(fitness: Fitness, opt: Fitness) -> float:
    """``fitness / opt``; for minimization the reader flips the interpretation (1 is ideal,
    larger is worse)."""
    if opt <= 0:
        raise ParameterError(f"reference optimum must be positive, got {opt}")
    return fitness / opt
