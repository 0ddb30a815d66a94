"""Problem definitions: size-constrained coverage maximization and weighted set cover.

Both problems are posed over bit strings selecting subsets from a candidate
family.  The size constraint and the covering constraint are folded into the
objective so the search algorithms only ever see an unconstrained
pseudo-Boolean function plus an integer behaviour descriptor:

* coverage maximization scores the union size of the selected sets and
  returns -1 whenever more than ``k`` sets are selected;
* set cover scores selection weight plus ``penalty`` per uncovered element,
  with ``penalty`` large enough that any fuller cover beats any lighter
  non-cover.

Fitness values are exact ints throughout; the set-cover constructor rejects
parameter combinations whose worst-case fitness would not survive a float
round trip (2^53).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Union

from .core import Solution
from .errors import ParameterError, ValidationError

__all__ = [
    "Direction",
    "Fitness",
    "is_better",
    "MaxCoverageInstance",
    "SetCoverInstance",
    "Problem",
    "make_element_masks",
    "coverage_count",
    "submodular_eval",
    "submodular_descriptor",
    "set_cover_eval",
    "set_cover_descriptor",
    "is_feasible",
    "make_max_coverage_problem",
    "make_set_cover_problem",
    "make_problem",
    "default_penalty",
]

Fitness = Union[int, float]

_FLOAT_EXACT_LIMIT = 2**53


class Direction(Enum):
    """Whether larger or smaller fitness wins."""

    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


def is_better(a: Fitness, b: Fitness, direction: Direction, *, strict: bool = True) -> bool:
    """Compare two fitness values under the given direction."""
    if direction is Direction.MAXIMIZE:
        return a > b if strict else a >= b
    return a < b if strict else a <= b


def _check_sets(sets, n: int, m_elements: int) -> None:
    if len(sets) != n:
        raise ValidationError(f"expected one candidate set per variable: got {len(sets)} sets for n={n}")
    for i, s in enumerate(sets):
        prev = -1
        for e in s:
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValidationError(f"sets[{i}] contains non-integer element {e!r}")
            if not 0 <= e < m_elements:
                raise ValidationError(f"sets[{i}] contains element {e} outside 0..{m_elements - 1}")
            if e <= prev:
                raise ValidationError(f"sets[{i}] must be strictly ascending (saw {prev} then {e})")
            prev = e


def make_element_masks(sets) -> tuple[int, ...]:
    """One int bitmask per candidate set, bit ``e`` for element ``e``."""
    return tuple(sum(1 << e for e in s) for s in sets)


def _union_word(word: int, masks) -> int:
    u = 0
    while word:
        low = word & -word
        u |= masks[low.bit_length() - 1]
        word ^= low
    return u


@dataclass(frozen=True)
class MaxCoverageInstance:
    """Ground set of ``m_elements`` items, ``n`` candidate sets, pick at most ``k``."""

    n: int
    m_elements: int
    sets: tuple[tuple[int, ...], ...]
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"n must be positive, got {self.n}")
        if self.m_elements < 1:
            raise ValidationError(f"m_elements must be positive, got {self.m_elements}")
        if not 1 <= self.k <= self.n:
            raise ValidationError(f"k must lie in 1..n={self.n}, got {self.k}")
        _check_sets(self.sets, self.n, self.m_elements)

    @cached_property
    def set_masks(self) -> tuple[int, ...]:
        return make_element_masks(self.sets)


@dataclass(frozen=True)
class SetCoverInstance:
    """Weighted set cover with the covering constraint folded in as a penalty.

    ``penalty`` must exceed ``n * max(weights)`` so that covering one more
    element always beats any achievable weight saving.
    """

    n: int
    m_elements: int
    sets: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    penalty: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"n must be positive, got {self.n}")
        if self.m_elements < 1:
            raise ValidationError(f"m_elements must be positive, got {self.m_elements}")
        _check_sets(self.sets, self.n, self.m_elements)
        if len(self.weights) != self.n:
            raise ValidationError(
                f"expected one weight per set: got {len(self.weights)} weights for n={self.n}"
            )
        for i, w in enumerate(self.weights):
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise ValidationError(f"weights[{i}] must be a positive integer, got {w!r}")
        if not isinstance(self.penalty, int) or isinstance(self.penalty, bool):
            raise ValidationError(f"penalty must be an integer, got {self.penalty!r}")
        w_max = max(self.weights)
        if self.penalty <= self.n * w_max:
            raise ValidationError(
                f"penalty {self.penalty} must exceed n * max(weights) = {self.n * w_max}"
            )
        # Worst-case fitness must stay exactly representable as a float.
        worst = self.penalty * self.m_elements + self.n * w_max
        if worst >= _FLOAT_EXACT_LIMIT:
            raise ValidationError(
                f"worst-case fitness {worst} reaches 2^53; shrink n, weights, or penalty"
            )
        union = 0
        for mask in make_element_masks(self.sets):
            union |= mask
        if union != (1 << self.m_elements) - 1:
            missing = [e for e in range(self.m_elements) if not (union >> e) & 1]
            raise ValidationError(f"elements {missing} are not covered by any set")

    @cached_property
    def set_masks(self) -> tuple[int, ...]:
        return make_element_masks(self.sets)


def default_penalty(n: int, weights) -> int:
    """The stock penalty weight: n * max(weights) + 1."""
    return n * max(weights) + 1


Instance = Union[MaxCoverageInstance, SetCoverInstance]


# ---------------------------------------------------------------------------
# Evaluators and descriptors


def coverage_count(x: Solution, sets, m_elements: int) -> int:
    """Number of elements covered by the sets selected in ``x``."""
    if len(sets) != x.n:
        raise ParameterError(f"{len(sets)} sets but solution has {x.n} variables")
    union = _union_word(x.word, make_element_masks(sets))
    if union >> m_elements:
        raise ParameterError(f"sets reference elements outside 0..{m_elements - 1}")
    return union.bit_count()


def submodular_eval(x: Solution, inst: MaxCoverageInstance) -> int:
    """Coverage fitness with the size constraint folded in: -1 when more than k sets are picked."""
    if x.n != inst.n:
        raise ParameterError(f"solution has {x.n} variables, instance has {inst.n}")
    if x.word.bit_count() > inst.k:
        return -1
    return _union_word(x.word, inst.set_masks).bit_count()


def submodular_descriptor(x: Solution) -> int:
    """Behaviour descriptor for coverage problems: number of selected sets (0..n)."""
    return x.word.bit_count()


def set_cover_eval(x: Solution, inst: SetCoverInstance) -> int:
    """Selection weight plus ``penalty`` per uncovered element (to be minimized)."""
    if x.n != inst.n:
        raise ParameterError(f"solution has {x.n} variables, instance has {inst.n}")
    word = x.word
    weight = 0
    union = 0
    masks = inst.set_masks
    weights = inst.weights
    while word:
        low = word & -word
        i = low.bit_length() - 1
        weight += weights[i]
        union |= masks[i]
        word ^= low
    return weight + inst.penalty * (inst.m_elements - union.bit_count())


def set_cover_descriptor(x: Solution, inst: SetCoverInstance) -> int:
    """Behaviour descriptor for set cover: number of covered elements (0..m)."""
    if x.n != inst.n:
        raise ParameterError(f"solution has {x.n} variables, instance has {inst.n}")
    return _union_word(x.word, inst.set_masks).bit_count()


@dataclass(frozen=True)
class Problem:
    """A pseudo-Boolean objective bound to a behaviour grid.

    ``probe`` returns ``(fitness, cell, feasible)`` in one pass and must agree
    with the three separate accessors; the run loops use it so set-union work
    is not done twice per evaluation.
    """

    name: str
    n: int
    num_cells: int
    direction: Direction
    evaluate: Callable[[Solution], Fitness]
    descriptor: Callable[[Solution], int]
    feasible: Callable[[Solution], bool]
    probe: Callable[[Solution], tuple[Fitness, int, bool]]
    known_opt: Fitness | None = None
    instance: Instance | None = None


def is_feasible(x: Solution, problem: Problem) -> bool:
    """Whether ``x`` satisfies the problem's original (pre-reformulation) constraint."""
    return problem.feasible(x)


def _chunk_tables(values, combine) -> tuple[tuple, ...]:
    """For each 8-bit chunk of a word, the ``combine`` of ``values`` over every subset.

    Table ``c`` maps a byte ``b`` to the combination of ``values[8c + i]``
    over the set bits ``i`` of ``b`` (``0`` for the empty byte), so the
    combination over a whole word is the combination of one entry per byte.
    Each entry extends a smaller subset by one value, so a table costs 255
    ``combine`` calls; the last chunk's table covers only its own bits.
    """
    tables = []
    for base in range(0, len(values), 8):
        chunk = values[base : base + 8]
        table = [0] * (1 << len(chunk))
        for b in range(1, len(table)):
            low = b & -b
            table[b] = combine(table[b ^ low], chunk[low.bit_length() - 1])
        tables.append(tuple(table))
    return tuple(tables)


def make_max_coverage_problem(
    inst: MaxCoverageInstance, known_opt: Fitness | None = None
) -> Problem:
    """The coverage problem; ``probe`` ORs one precomputed union per byte of the word.

    The tables hold at most 256 union masks per 8-bit chunk, ⌈n/8⌉·256 masks
    of ``m_elements`` bits in all.
    """
    tables = _chunk_tables(inst.set_masks, operator.or_)
    width = len(tables)
    k = inst.k

    def probe(x: Solution) -> tuple[int, int, bool]:
        # Agrees with submodular_eval / submodular_descriptor, the per-set reference.
        word = x.word
        ones = word.bit_count()
        if ones > k:
            return -1, ones, False
        union = 0
        for table, byte in zip(tables, word.to_bytes(width, "little")):
            union |= table[byte]
        return union.bit_count(), ones, True

    return Problem(
        name="max-coverage",
        n=inst.n,
        num_cells=inst.n + 1,
        direction=Direction.MAXIMIZE,
        evaluate=lambda x: submodular_eval(x, inst),
        descriptor=submodular_descriptor,
        feasible=lambda x: x.word.bit_count() <= k,
        probe=probe,
        known_opt=known_opt,
        instance=inst,
    )


def make_set_cover_problem(inst: SetCoverInstance, known_opt: Fitness | None = None) -> Problem:
    """The set-cover problem; ``probe`` adds up one precomputed entry per byte of the word.

    Each entry is the (union mask, weight sum) pair of a subset of one 8-bit
    chunk: ⌈n/8⌉·256 masks of ``m_elements`` bits and as many ints in all.
    """
    tables = tuple(
        tuple(zip(masks, weights))
        for masks, weights in zip(
            _chunk_tables(inst.set_masks, operator.or_), _chunk_tables(inst.weights, operator.add)
        )
    )
    width = len(tables)
    m = inst.m_elements
    penalty = inst.penalty

    def probe(x: Solution) -> tuple[int, int, bool]:
        # Agrees with set_cover_eval / set_cover_descriptor, the per-set reference.
        weight = union = 0
        for table, byte in zip(tables, x.word.to_bytes(width, "little")):
            mask, chunk_weight = table[byte]
            union |= mask
            weight += chunk_weight
        covered = union.bit_count()
        return weight + penalty * (m - covered), covered, covered == m

    return Problem(
        name="set-cover",
        n=inst.n,
        num_cells=m + 1,
        direction=Direction.MINIMIZE,
        evaluate=lambda x: set_cover_eval(x, inst),
        descriptor=lambda x: set_cover_descriptor(x, inst),
        feasible=lambda x: set_cover_descriptor(x, inst) == m,
        probe=probe,
        known_opt=known_opt,
        instance=inst,
    )


def make_problem(inst: Instance, known_opt: Fitness | None = None) -> Problem:
    """Dispatch on the instance type."""
    if isinstance(inst, MaxCoverageInstance):
        return make_max_coverage_problem(inst, known_opt)
    if isinstance(inst, SetCoverInstance):
        return make_set_cover_problem(inst, known_opt)
    raise ParameterError(f"unsupported instance type {type(inst).__name__}")
