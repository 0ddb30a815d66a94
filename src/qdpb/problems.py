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
from itertools import filterfalse, islice
from typing import Callable, Optional, Union

from .core import Solution
from .errors import ParameterError, ValidationError, require_ints

__all__ = [
    "Direction",
    "Fitness",
    "comparison",
    "MaxCoverageInstance",
    "SetCoverInstance",
    "Problem",
    "make_element_masks",
    "make_max_coverage_problem",
    "make_set_cover_problem",
    "make_problem",
    "default_penalty",
]

Fitness = Union[int, float]
Result = tuple[Fitness, int, bool]  # what a probe returns: (fitness, cell, feasible)

_FLOAT_EXACT_LIMIT = 2**53
_CHUNK_TABLE_LIMIT = 512 * 2**20  # bytes of union masks a problem's probe may build
_TABLE_LIMIT = 12  # up to this n, probe_word looks its word up in a table of all 2^n results
_MEMO_LIMIT = 2**_TABLE_LIMIT  # above it, the chunk walk's memo is cleared when it holds this many results


class Direction(Enum):
    """Whether larger or smaller fitness wins."""

    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


_COMPARISONS = {
    (Direction.MAXIMIZE, True): operator.gt,
    (Direction.MAXIMIZE, False): operator.ge,
    (Direction.MINIMIZE, True): operator.lt,
    (Direction.MINIMIZE, False): operator.le,
}


def comparison(direction: Direction, strict: bool = True) -> Callable[[Fitness, Fitness], bool]:
    """The operator ``op`` for which ``op(a, b)`` means fitness ``a`` beats ``b``
    under ``direction``: strictly, or at least ties with ``strict=False``.

    Loops that compare once per offspring or per word bind it once.
    """
    return _COMPARISONS[direction, strict]


def _check_instance(inst, ints) -> None:
    """The checks both instance types share: the fields named in ``ints`` are
    ints, ``n`` and ``m_elements`` are positive, and each of the ``n`` sets is
    a strictly ascending tuple of elements in ``0..m_elements-1``."""
    require_ints(inst, ints)
    n, m_elements, sets = inst.n, inst.m_elements, inst.sets
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    if m_elements < 1:
        raise ValidationError(f"m_elements must be positive, got {m_elements}")
    if len(sets) != n:
        raise ValidationError(f"expected one candidate set per variable: got {len(sets)} sets for n={n}")
    for i, s in enumerate(sets):
        if not isinstance(s, tuple):
            raise ValidationError(f"sets[{i}] must be a tuple of element indices, got {s!r}")
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
    """One int bitmask per candidate set, bit ``e`` for element ``e``.

    Each mask is filled in a byte buffer and converted once: adding ``1 << e``
    to an int copies the int, which is quadratic in the size of the set.
    """
    masks = []
    for s in sets:
        buf = bytearray((max(s, default=-1) >> 3) + 1)
        for e in s:
            buf[e >> 3] |= 1 << (e & 7)
        masks.append(int.from_bytes(buf, "little"))
    return tuple(masks)


@dataclass(frozen=True)
class MaxCoverageInstance:
    """Ground set of ``m_elements`` items, ``n`` candidate sets, pick at most ``k``."""

    n: int
    m_elements: int
    k: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_instance(self, ("n", "m_elements", "k"))
        if not 1 <= self.k <= self.n:
            raise ValidationError(f"k must lie in 1..n={self.n}, got {self.k}")


@dataclass(frozen=True)
class SetCoverInstance:
    """Weighted set cover with the covering constraint folded in as a penalty.

    ``penalty`` must exceed ``n * max(weights)`` so that covering one more
    element always beats any achievable weight saving.
    """

    n: int
    m_elements: int
    weights: tuple[int, ...]
    penalty: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_instance(self, ("n", "m_elements", "penalty"))
        if len(self.weights) != self.n:
            raise ValidationError(
                f"expected one weight per set: got {len(self.weights)} weights for n={self.n}"
            )
        for i, w in enumerate(self.weights):
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise ValidationError(f"weights[{i}] must be a positive integer, got {w!r}")
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
        covered = set().union(*self.sets)
        uncovered = self.m_elements - len(covered)
        if uncovered:
            first = list(islice(filterfalse(covered.__contains__, range(self.m_elements)), 10))
            raise ValidationError(f"{uncovered} element(s) are not covered by any set, the lowest {first}")


def default_penalty(n: int, weights) -> int:
    """The stock penalty weight: n * max(weights) + 1."""
    return n * max(weights) + 1


Instance = Union[MaxCoverageInstance, SetCoverInstance]


# ---------------------------------------------------------------------------
# The problem bundle


@dataclass(frozen=True)
class Problem:
    """A pseudo-Boolean objective bound to a behaviour grid.

    ``probe_word(word)`` returns ``(fitness, cell, feasible)`` of the solution
    whose bit word is ``word``, in one pass: the one evaluator, unchecked.
    The factories make it a lookup in a table of all 2^n results when
    n ≤ 12 (``_TABLE_LIMIT``), and above it a walk over the word's bytes by
    shift and mask that remembers its last in-size results in a memo,
    cleared when it holds 4,096 (``_MEMO_LIMIT``), so a word probed again
    soon costs one dict lookup.  Neither checks the word: a negative one,
    or one of 2^n or more, gives an unspecified triple or raises
    ``IndexError``.
    ``probe(x)`` is the same on a ``Solution`` after checking its length.
    Unless one is given, it is derived from ``probe_word``, and again by
    ``dataclasses.replace`` with a new ``probe_word``.
    """

    name: str
    n: int
    num_cells: int
    direction: Direction
    probe_word: Callable[[int], Result]
    probe: Optional[Callable[[Solution], Result]] = None
    known_opt: Fitness | None = None
    instance: Instance | None = None

    def __post_init__(self) -> None:
        probe = self.probe
        # A derived probe carries the probe_word it calls (a functools.wraps
        # wrapper copies it), so one carried over from another is derived again.
        if probe is None or getattr(probe, "probe_word", self.probe_word) is not self.probe_word:
            object.__setattr__(self, "probe", _probe_from_word(self.probe_word, self.n))


def _probe_from_word(probe_word: Callable[[int], Result], n: int) -> Callable[[Solution], Result]:
    def probe(x: Solution) -> Result:
        if x.n != n:
            raise ParameterError(f"solution has {x.n} variables, problem has {n}")
        return probe_word(x.word)

    probe.probe_word = probe_word
    return probe


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


def _tabulated(probe_word: Callable[[int], Result], n: int) -> Callable[[int], Result]:
    """``probe_word``, or for n ≤ ``_TABLE_LIMIT`` the ``__getitem__`` of the
    tuple of its results on every word ``0..2^n - 1``.

    Equal results are interned to one object, so the table holds one pointer
    per word and only as many results as there are distinct ones (24 for
    either n = 12 family).
    """
    if n > _TABLE_LIMIT:
        return probe_word
    interned: dict[Result, Result] = {}
    return tuple(interned.setdefault(r, r) for r in map(probe_word, range(1 << n))).__getitem__


def _memo(n: int) -> Optional[dict[int, Result]]:
    """A chunk walk's memo: empty above ``_TABLE_LIMIT``, and None at or
    below it.  There the walk only builds the table, probing each word once,
    so a result kept past its call would only raise the build's peak memory."""
    return {} if n > _TABLE_LIMIT else None


def _check_chunk_tables(n: int, m_elements: int) -> None:
    """Refuse a size whose ⌈n/8⌉·256 table masks of ``m_elements`` bits would
    exceed ``_CHUNK_TABLE_LIMIT`` (they grow as n³ on the bipartite family),
    before a generator or a problem builds anything."""
    estimate = -(-n // 8) * 256 * -(-m_elements // 8)
    if estimate > _CHUNK_TABLE_LIMIT:
        raise ParameterError(
            f"the probe's chunk tables for n={n}, m_elements={m_elements} would take "
            f"about {estimate >> 20} MiB, over the {_CHUNK_TABLE_LIMIT // 2**20} MiB limit"
        )


def make_max_coverage_problem(
    inst: MaxCoverageInstance, known_opt: Fitness | None = None
) -> Problem:
    """The coverage problem; ``probe_word`` ORs one precomputed union per byte of the word.

    The tables hold at most 256 union masks per 8-bit chunk, ⌈n/8⌉·256 masks
    of ``m_elements`` bits in all.  A word with more than ``k`` ones gets one
    of n + 1 shared ``(-1, ones, False)`` results, so no triple is built and
    none is remembered; above ``_TABLE_LIMIT`` any other result is
    remembered in a memo cleared at ``_MEMO_LIMIT`` entries.
    """
    _check_chunk_tables(inst.n, inst.m_elements)
    tables = _chunk_tables(make_element_masks(inst.sets), operator.or_)
    k = inst.k
    over_size = tuple((-1, ones, False) for ones in range(inst.n + 1))
    memo = _memo(inst.n)
    recall = {}.get if memo is None else memo.get

    def probe_word(word: int) -> tuple[int, int, bool]:
        ones = word.bit_count()
        if ones > k:
            return over_size[ones]
        result = recall(word)
        if result is None:
            union = 0
            rest = word
            for table in tables:
                union |= table[rest & 255]
                rest >>= 8
            result = union.bit_count(), ones, True
            if memo is not None:
                memo[word] = result
                if len(memo) >= _MEMO_LIMIT:
                    memo.clear()
        return result

    return Problem(
        name="max-coverage",
        n=inst.n,
        num_cells=inst.n + 1,
        direction=Direction.MAXIMIZE,
        probe_word=_tabulated(probe_word, inst.n),
        known_opt=known_opt,
        instance=inst,
    )


def make_set_cover_problem(inst: SetCoverInstance, known_opt: Fitness | None = None) -> Problem:
    """The set-cover problem; ``probe_word`` adds up one precomputed entry per byte of the word.

    Each entry is the (union mask, weight sum) pair of a subset of one 8-bit
    chunk: ⌈n/8⌉·256 masks of ``m_elements`` bits and as many ints in all.
    Above ``_TABLE_LIMIT`` each result is remembered in a memo cleared at
    ``_MEMO_LIMIT`` entries.
    """
    _check_chunk_tables(inst.n, inst.m_elements)
    tables = tuple(
        tuple(zip(masks, weights))
        for masks, weights in zip(
            _chunk_tables(make_element_masks(inst.sets), operator.or_),
            _chunk_tables(inst.weights, operator.add),
        )
    )
    m = inst.m_elements
    penalty = inst.penalty
    memo = _memo(inst.n)
    recall = {}.get if memo is None else memo.get

    def probe_word(word: int) -> tuple[int, int, bool]:
        result = recall(word)
        if result is None:
            weight = union = 0
            rest = word
            for table in tables:
                mask, chunk_weight = table[rest & 255]
                union |= mask
                weight += chunk_weight
                rest >>= 8
            covered = union.bit_count()
            result = weight + penalty * (m - covered), covered, covered == m
            if memo is not None:
                memo[word] = result
                if len(memo) >= _MEMO_LIMIT:
                    memo.clear()
        return result

    return Problem(
        name="set-cover",
        n=inst.n,
        num_cells=m + 1,
        direction=Direction.MINIMIZE,
        probe_word=_tabulated(probe_word, inst.n),
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
