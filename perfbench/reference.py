"""Answers computed apart from qdpb, which the benchmark checks its outputs against.

Nothing here imports qdpb or shares its bit-word arithmetic: solutions are
scored as unions of Python ``set`` objects, optima of max coverage come from
``itertools.combinations``, and the optimum of set cover comes from scipy's
``milp`` and is counted by a set-based depth-first enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def chosen(bitstring: str) -> list[int]:
    """Selected indices of a solution string (character ``i`` is variable ``i``)."""
    return [i for i, c in enumerate(bitstring) if c == "1"]


def coverage_score(sets, k: int, bitstring: str) -> int:
    """Max-coverage fitness: size of the union, or -1 beyond ``k`` sets."""
    picked = chosen(bitstring)
    if len(picked) > k:
        return -1
    return len(set().union(*(set(sets[i]) for i in picked)))


def cover_score(sets, weights, penalty: int, m_elements: int, bitstring: str) -> int:
    """Set-cover fitness: selected weight plus ``penalty`` per uncovered element."""
    picked = chosen(bitstring)
    covered = set().union(*(set(sets[i]) for i in picked))
    return sum(weights[i] for i in picked) + penalty * (m_elements - len(covered))


def bipartite_shape(n: int, delta: Fraction) -> tuple[int, int]:
    """(left, right) vertex counts of the bipartite family: (1+d)n/3 and (2-d)n/3."""
    left, right = (1 + delta) * n / 3, (2 - delta) * n / 3
    if left.denominator != 1 or right.denominator != 1:
        raise ValueError(f"n={n}, delta={delta} gives no whole bipartite family")
    return int(left), int(right)


def bipartite_trap_fitness(n: int, delta: Fraction) -> int:
    """Coverage of k = left right vertices, each covering ``left`` edges: k * left."""
    left, _right = bipartite_shape(n, delta)
    return left * left


def bipartite_optimum(n: int, delta: Fraction) -> int:
    """All left vertices cover every edge: left * right."""
    left, right = bipartite_shape(n, delta)
    return left * right


def bipartite_full_qd_score(n: int, delta: Fraction) -> int:
    """QD-score of the filled optimal archive: cell j <= k holds j left vertices
    (j * right edges), and each of the n - k cells above the budget holds -1."""
    left, right = bipartite_shape(n, delta)
    k = left
    return sum(j * right for j in range(k + 1)) - (n - k)


def umbrella_trap_fitness(n: int) -> int:
    """The umbrella set alone weighs 2^n."""
    return 2**n


def max_coverage_optimum(sets, k: int) -> tuple[int, int, int]:
    """(optimum, number of optimal selections, smallest optimal bit word) over
    all selections of at most ``k`` sets."""
    as_sets = [set(s) for s in sets]
    best, count, best_word = -1, 0, None
    for size in range(k + 1):
        for combo in combinations(range(len(sets)), size):
            value = len(set().union(*(as_sets[i] for i in combo)))
            word = sum(1 << i for i in combo)
            if value > best:
                best, count, best_word = value, 1, word
            elif value == best:
                count += 1
                best_word = min(best_word, word)
    return best, count, best_word


def set_cover_optimum(sets, weights, m_elements: int) -> tuple[int, int, int]:
    """(optimum weight, number of optimal covers, smallest optimal bit word).

    The optimum weight comes from an integer program; the covers of exactly
    that weight are then enumerated, so a wrong program answer shows as a
    count of zero or as a lighter cover.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(sets)
    incidence = np.zeros((m_elements, n))
    for i, s in enumerate(sets):
        for e in s:
            incidence[e, i] = 1.0
    result = milp(
        c=np.array(weights, dtype=float),
        constraints=LinearConstraint(incidence, lb=np.ones(m_elements), ub=np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not result.success:
        raise RuntimeError(f"milp failed: {result.message}")
    optimum = round(result.fun)

    as_sets = [frozenset(s) for s in sets]
    universe = frozenset(range(m_elements))
    # reach[i]: elements coverable by sets i..n-1, for pruning dead branches.
    reach = [frozenset()] * (n + 1)
    for i in range(n - 1, -1, -1):
        reach[i] = reach[i + 1] | as_sets[i]
    covers: list[tuple[int, int]] = []  # (weight, word) of covers no heavier than optimum

    def walk(i: int, weight: int, covered: frozenset, word: int) -> None:
        if covered == universe:
            covers.append((weight, word))
            return
        if i == n or not (universe - covered) <= reach[i]:
            return
        if weight + weights[i] <= optimum:
            walk(i + 1, weight + weights[i], covered | as_sets[i], word | (1 << i))
        walk(i + 1, weight, covered, word)

    walk(0, 0, frozenset(), 0)
    # A cover stops the walk, so supersets of a cover are reached through the
    # branch that skips the covering set and are never optimal unless their
    # extra weight is zero, which positive weights rule out.
    lightest = min(w for w, _ in covers) if covers else None
    if lightest != optimum:
        raise RuntimeError(f"milp optimum {optimum} but enumeration found {lightest}")
    optimal = [word for w, word in covers if w == optimum]
    return optimum, len(optimal), min(optimal)
