"""Exact oracles and structural diagnostics.

Everything here is deliberately slow-but-certain: exhaustive enumeration with
explicit size guards, exact integer/rational arithmetic where results feed
assertions, and closed-form bounds for the two adversarial families.  These
routines are the reference the search engines are judged against, so none of
them share code with the engines' hot paths.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, islice, repeat
from typing import Optional, Union

from .core import Solution
from .errors import ParameterError, StateError
from .instances import Example1Params, Example2Params
from .problems import (
    Fitness,
    MaxCoverageInstance,
    Problem,
    SetCoverInstance,
    comparison,
    make_element_masks,
)

__all__ = [
    "OracleResult",
    "reference_probe",
    "QdMetrics",
    "brute_force_opt",
    "best_greedy_gain",
    "greedy_max_coverage",
    "greedy_set_cover",
    "escape_radius",
    "trap_escape_probability_bound",
    "qd_metrics",
    "approximation_ratio",
]

_BRUTE_FORCE_LIMIT = 24
_ESCAPE_LIMIT = 20


@dataclass(frozen=True)
class OracleResult:
    """Outcome of exhaustive optimization: one optimum, its fitness, and how many optima exist."""

    solution: Solution
    fitness: Fitness
    optima_count: int


def _subset_tables(masks, weights, start: int, bits: int) -> tuple[list[int], list[int]]:
    """The union mask and the weight sum of every subset of the ``bits``
    variables from ``start`` on, indexed by the subset's word: variable i
    doubles each table, its subsets after the ones without it."""
    unions, sums = [0], [0]
    for mask, weight in zip(masks[start : start + bits], weights[start : start + bits]):
        unions += [union | mask for union in unions]
        sums += [total + weight for total in sums]
    return unions, sums


def _minimal_element_masks(inst: SetCoverInstance) -> list[int]:
    """Each set's mask over the instance's minimal elements only.

    An element's signature is the word of the sets that contain it.  A word
    that covers an element covers every element whose signature holds that
    one's, so covering the elements with minimal signatures (one per
    distinct signature) is covering them all.  Signatures are visited by
    ascending popcount, and one is kept unless it holds a kept one.
    """
    signatures = [0] * inst.m_elements
    for i, elements in enumerate(inst.sets):
        for e in elements:
            signatures[e] |= 1 << i
    kept: list[int] = []
    for signature in sorted(set(signatures), key=int.bit_count):
        if all(k & signature != k for k in kept):
            kept.append(signature)
    return [
        sum(1 << j for j, signature in enumerate(kept) if signature >> i & 1) for i in range(inst.n)
    ]


def _best_coverage(inst: MaxCoverageInstance, low_bits: int) -> tuple[Optional[int], Fitness, int]:
    """``(word, fitness, count)`` of the best words of at most k sets."""
    masks = make_element_masks(inst.sets)
    unit = (1,) * inst.n
    low_unions, low_sums = _subset_tables(masks, unit, 0, low_bits)
    high_unions, high_sums = _subset_tables(masks, unit, low_bits, inst.n - low_bits)
    # The low words by union size, largest first and ties in word order, and
    # per cap, those with at most ``cap`` ones, their unions and their
    # negated union sizes.  A cap never exceeds k.
    negated = [-union.bit_count() for union in low_unions]
    order = sorted(range(1 << low_bits), key=negated.__getitem__)
    caps = range(min(inst.k, low_bits) + 1)
    words_by_cap = [[low for low in order if low_sums[low] <= cap] for cap in caps]
    unions_by_cap = [[low_unions[low] for low in words] for words in words_by_cap]
    negated_by_cap = [[negated[low] for low in words] for words in words_by_cap]
    best_word, best_fitness, count = None, -1, 0
    for high, (union, weight) in enumerate(zip(high_unions, high_sums)):
        cap = inst.k - weight
        if cap < 0:
            continue
        cap = min(cap, low_bits)
        # A low word whose union is smaller than best - size reaches no tie.
        end = bisect_right(negated_by_cap[cap], union.bit_count() - best_fitness)
        if not end:
            continue
        fitnesses = list(map(int.bit_count, map(union.__or__, islice(unions_by_cap[cap], end))))
        top = max(fitnesses)
        if top > best_fitness:
            tied = compress(words_by_cap[cap], map(top.__eq__, fitnesses))
            best_word = (high << low_bits) | min(tied)
            best_fitness, count = top, fitnesses.count(top)
        elif top == best_fitness:
            count += fitnesses.count(top)
    return best_word, best_fitness, count


def _best_cover(inst: SetCoverInstance, low_bits: int) -> tuple[Optional[int], Fitness, int]:
    """``(word, fitness, count)`` of the lightest full covers."""
    masks = _minimal_element_masks(inst)
    low_unions, low_sums = _subset_tables(masks, inst.weights, 0, low_bits)
    high_unions, high_sums = _subset_tables(masks, inst.weights, low_bits, inst.n - low_bits)
    full = low_unions[-1] | high_unions[-1]
    # Positions: the low words by weight sum, ties in word order.  holding[i]
    # has one bit per position whose word holds low set i: in the words'
    # binary digits, last position first, every low_bits-th digit from the
    # one of set i.  covers[j], the OR of holding[i] over the low sets holding
    # element j, has one per position whose word covers j.
    order = sorted(range(1 << low_bits), key=low_sums.__getitem__)
    sums = [low_sums[low] for low in order]
    digits = "".join(map(format, reversed(order), repeat(f"0{low_bits}b")))
    holding = [int(digits[low_bits - 1 - i :: low_bits], 2) for i in range(low_bits)]
    covers = [0] * full.bit_length()
    for i in range(low_bits):
        elements = masks[i]
        while elements:
            bit = elements & -elements
            covers[bit.bit_length() - 1] |= holding[i]
            elements ^= bit
    every = (1 << len(order)) - 1
    best_word, best_fitness, count = None, math.inf, 0
    for high, (union, weight) in enumerate(zip(high_unions, high_sums)):
        if weight > best_fitness:
            continue  # no low subset can bring the weight back down to a tie
        fits = every
        need = full & ~union
        while need and fits:
            bit = need & -need
            fits &= covers[bit.bit_length() - 1]
            need ^= bit
        if not fits:
            continue
        # The lowest position is the lightest cover, and the smallest word of
        # its weight; the others of that weight, up to the group's end, tie.
        first = (fits & -fits).bit_length() - 1
        fitness = weight + sums[first]
        if fitness > best_fitness:
            continue
        ties = (fits & ((1 << bisect_right(sums, sums[first])) - 1)).bit_count()
        if fitness < best_fitness:
            best_word = (high << low_bits) | order[first]
            best_fitness, count = fitness, ties
        else:
            count += ties
    return best_word, best_fitness, count


def brute_force_opt(problem: Problem) -> OracleResult:
    """Enumerate all 2^n solutions of ``problem.instance`` and return the best feasible one.

    Meet in the middle: the n variables split into a low half of
    L = ⌈n/2⌉ bits and a high half of n - L, and each half tabulates the
    union mask and weight sum of every subset of its sets (weight 1 per set
    for coverage).  Each high subset, in ascending order, is then scored
    against the low subsets that complete a feasible word.

    For coverage those are the low subsets with at most k - ones(high) ones,
    sorted by union size, largest first.  A high subset scores, by the size
    of the joint union, only the prefix of them whose union size is at least
    the best coverage so far minus its own: no later one can reach a tie.

    For set cover the masks hold only the minimal elements, those whose
    signature (the word of the sets that contain them) holds no other's: a
    word covers every element exactly when it covers these.  Each such
    element has a bitset over the low subsets sorted by weight sum, with a
    bit for each one that covers it.  A high subset ANDs the bitsets of the
    elements it leaves uncovered; the lowest set bit is its lightest
    completion, and the bits of that weight count the ties.  A high subset
    that alone outweighs the best cover so far is skipped.

    The high subsets go in ascending order, and a new best takes the
    smallest of its tied low words (for set cover, the first of its weight
    group), so ties are counted and the reported solution is the one with
    the numerically smallest bit word.  It never calls
    ``probe_word``, so it checks the evaluator instead of repeating it.
    Guarded to n <= 24.
    """
    n = problem.n
    if n > _BRUTE_FORCE_LIMIT:
        raise ParameterError(f"brute force is limited to n <= {_BRUTE_FORCE_LIMIT}, got n={n}")
    inst = problem.instance
    if inst is None:
        raise ParameterError(f"brute force enumerates an instance, and problem {problem.name!r} has none")
    search = _best_coverage if isinstance(inst, MaxCoverageInstance) else _best_cover
    best_word, best_fitness, count = search(inst, (n + 1) // 2)
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
    masks = make_element_masks(inst.sets)
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
    masks = make_element_masks(inst.sets)
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
    """What a run kept, per cell: cells held, sum of cell bests."""

    coverage: int
    qd_score: Fitness


def qd_metrics(kept) -> QdMetrics:
    """Fold the ``probe_word`` results an ``Archive`` or a ``Population`` kept
    into the best fitness per cell, so a cell held by several members counts
    once, with its best; probes nothing."""
    better = comparison(kept.direction)
    cells: dict[int, Fitness] = {}
    for result in kept.results:
        if result is None:
            continue
        fitness, cell, _feasible = result
        if cell not in cells or better(fitness, cells[cell]):
            cells[cell] = fitness
    return QdMetrics(coverage=len(cells), qd_score=sum(cells.values()))


def approximation_ratio(fitness: Fitness, opt: Fitness) -> float:
    """``fitness / opt``; for minimization the reader flips the interpretation (1 is ideal,
    larger is worse)."""
    if opt <= 0:
        raise ParameterError(f"reference optimum must be positive, got {opt}")
    return fitness / opt
