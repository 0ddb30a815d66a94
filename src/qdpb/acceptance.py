"""The acceptance gate: seven self-contained checks the package must pass.

Each criterion is a pure function returning (ok, details); ``run_criterion``
adds wall-clock enforcement, and both the test suite and the ``verify`` CLI
subcommand call the exact same functions with the exact same seeds, so a
green test run and a clean ``qdpb verify`` are the same statement.

The seven checks:

  c1  the exhaustive oracle's whole answer (optimum, optima count, smallest
      optimal word) equals a second enumeration scored by the set-based
      ``reference_probe``, and the greedy baselines meet their bounds, on a
      batch of random instances
  c2  the archive-based search reaches the (1 - 1/e) quality level in the
      full-size cell of the bipartite family within the stated budget
  c3  the archive-based search finds a harmonic-factor cover of the
      umbrella family within the stated budget
  c4  the population-based search, seeded at the bipartite local optimum
      (n=60), never improves in a million evaluations; the structural escape
      analysis explains why
  c5  same trap statement for the umbrella family (n=12), plus the exact
      escape radius and the exact cost ratio of staying trapped
  c6  head-to-head at equal budget on the bipartite n=30 instance: the
      archive search reliably hits the optimum region, the population search
      does not
  c7  distributional and structural invariants (the run loop's flip and
      parent draws, greedy gain inequality, monotone archives, the probe
      against its set-based reference on every word, on both sides of the
      table limit, evaluation conservation, determinism)
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

from .algorithms import QualityTarget, RunConfig, run_ea, run_map_elites
from .analysis import (
    approximation_ratio,
    best_greedy_gain,
    brute_force_opt,
    escape_radius,
    greedy_max_coverage,
    greedy_set_cover,
    reference_probe,
    trap_escape_probability_bound,
)
from .core import RandomSource, Solution
from .errors import ParameterError
from .harness import ExperimentConfig, ProblemSpec, run_experiment
from .instances import (
    Example1Params,
    Example2Params,
    example1_local_optimum,
    example1_max_coverage,
    example2_set_cover,
    random_max_coverage,
    random_set_cover,
)
from .problems import Direction, Problem, make_problem

__all__ = [
    "CriterionResult",
    "CRITERION_IDS",
    "criterion_summary",
    "run_criterion",
    "run_all",
]


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    seconds: float
    limit_seconds: float
    details: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.cid} {verdict} ({self.seconds:.1f}s / limit {self.limit_seconds:.0f}s) {self.details}"


# ---------------------------------------------------------------------------
# c1: oracles agree


def _independent_enumeration(problem):
    """``(best, count, smallest optimal word, None)`` over every word, descending,
    scored by the set-based ``reference_probe`` and compared with plain ``>``/``<``
    (unlike the oracle and the engines), or ``(None, 0, None, fault)`` naming the
    first word whose ``probe_word`` triple differs or whose cell is off the grid.
    The scan keeps the last tie it reaches, which is the smallest."""
    maximize = problem.direction is Direction.MAXIMIZE
    probe_word = problem.probe_word
    best = smallest = None
    count = 0
    for word in range((1 << problem.n) - 1, -1, -1):
        x = Solution(problem.n, word)
        result = reference_probe(x, problem.instance)
        probed = probe_word(word)
        if probed != result:
            return None, 0, None, f"{problem.name}: probe {probed} != reference {result} on {x.to_string()}"
        if not 0 <= probed[1] < problem.num_cells:
            return None, 0, None, f"{problem.name}: descriptor {probed[1]} outside the cell range"
        fitness, _cell, feasible = result
        if not feasible:
            continue
        if best is None or (fitness > best if maximize else fitness < best):
            best, count, smallest = fitness, 1, word
        elif fitness == best:
            count, smallest = count + 1, word
    return best, count, smallest, None


def _c1_oracle_agreement() -> tuple[bool, str]:
    checked = 0
    for seed in range(20):
        inst = random_max_coverage(12, 14, 0.35, 4, RandomSource(1000 + seed))
        problem = make_problem(inst)
        result = brute_force_opt(problem)
        if _independent_enumeration(problem) != (result.fitness, result.optima_count, result.solution.word, None):
            return False, f"coverage instance seed={1000 + seed}: oracle disagreement"
        greedy_value = problem.probe(greedy_max_coverage(inst))[0]
        if greedy_value < (1 - 1 / math.e) * result.fitness - 1e-9:
            return False, f"coverage instance seed={1000 + seed}: greedy below (1-1/e) bound"
        checked += 1
    for seed in range(20):
        inst = random_set_cover(12, 10, 0.3, 8, RandomSource(2000 + seed))
        problem = make_problem(inst)
        result = brute_force_opt(problem)
        if _independent_enumeration(problem) != (result.fitness, result.optima_count, result.solution.word, None):
            return False, f"cover instance seed={2000 + seed}: oracle disagreement"
        greedy_value, _cell, feasible = problem.probe(greedy_set_cover(inst))
        if not feasible:
            return False, f"cover instance seed={2000 + seed}: greedy cover incomplete"
        if greedy_value > (math.log(inst.m_elements) + 1) * result.fitness + 1e-9:
            return False, f"cover instance seed={2000 + seed}: greedy above harmonic bound"
        checked += 1
    return True, f"{checked}/40 random instances: both enumerations and greedy bounds agree"


# ---------------------------------------------------------------------------
# c2/c3: archive search hits a quality target


def _archive_hits(
    spec: ProblemSpec, budget: int, master_seed: int, target: QualityTarget, goal: str
) -> tuple[bool, str]:
    """At least 45 of 50 archive-search trials on ``spec`` meet ``target``
    within ``budget``; ``goal`` says what meeting it means.  The trials end
    too soon to pay for a process pool, so they run serially."""
    config = ExperimentConfig(
        problem=spec,
        algorithm="map-elites",
        budget=budget,
        trials=50,
        master_seed=master_seed,
        target=target,
        workers=1,
    )
    aggregate = run_experiment(config).aggregate
    return aggregate.success_count >= 45, (
        f"{aggregate.success_count}/50 trials {goal} within {budget} evaluations "
        f"(median first hit {aggregate.median_first_hit})"
    )


def _c2_archive_reaches_near_optimal() -> tuple[bool, str]:
    params = Example1Params(30, Fraction(1, 10))
    threshold = math.ceil((1 - 1 / math.e) * params.opt_fitness)
    return _archive_hits(
        ProblemSpec(kind="example1", n=30, delta="1/10"),
        int(20 * params.n**2 * (math.log(params.n) + params.k)),
        220,
        QualityTarget(threshold=threshold, required_cell=params.k),
        f"reached fitness >= {threshold} in cell {params.k}",
    )


def _c3_archive_covers_cheaply() -> tuple[bool, str]:
    params = Example2Params(12)
    m, n = params.m_elements, params.n
    w_max = 2**n
    threshold = math.floor((math.log(m) + 1) * params.opt_fitness)
    return _archive_hits(
        ProblemSpec(kind="example2", n=12),
        int(20 * m * n * (m + math.log(n) + math.log(w_max))),
        330,
        QualityTarget(threshold=threshold),
        f"found a full cover of weight <= {threshold}",
    )


# ---------------------------------------------------------------------------
# c4/c5: seeded population search stays trapped


def _trapped(spec: ProblemSpec, local_fitness, master_seed: int) -> tuple[int, bool]:
    """20 EA trials of 1e6 evaluations seeded at the local optimum of ``spec``:
    how many improved on ``local_fitness``, and whether every trial ended with
    that best value and one occupied cell."""
    config = ExperimentConfig(
        problem=spec,
        algorithm="ea",
        budget=1_000_000,
        trials=20,
        master_seed=master_seed,
        target=QualityTarget(threshold=local_fitness, strict=True, require_feasible=False),
        seed_population="local",
        milestone_every=250_000,
        workers=os.cpu_count() or 1,
    )
    report = run_experiment(config)
    stuck = all(r.best_fitness == local_fitness and r.coverage == 1 for r in report.records)
    return report.aggregate.success_count, stuck


def _c4_bipartite_trap() -> tuple[bool, str]:
    params = Example1Params(60, Fraction(1, 10))
    improvements, stuck = _trapped(
        ProblemSpec(kind="example1", n=60, delta="1/10"), params.local_fitness, 440
    )
    bound = trap_escape_probability_bound(params)
    # Structural cross-check on the exhaustively checkable analogue.
    small = Example1Params(9, Fraction(1, 3))
    radius = escape_radius(
        example1_local_optimum(small), make_problem(example1_max_coverage(small))
    )
    small_bound = trap_escape_probability_bound(small)
    ok = (
        improvements == 0
        and stuck
        and bound < 1e-12
        and radius == 8
        and small_bound == float(Fraction(1, 9**8))
    )
    return ok, (
        f"{improvements} improvements in 20x1e6 evaluations from the n=60 local optimum; "
        f"per-step escape bound {bound:.2e}; exhaustive n=9 analogue: radius {radius}, "
        f"bound {small_bound:.2e}"
    )


def _c5_umbrella_trap() -> tuple[bool, str]:
    params = Example2Params(12)
    improvements, stuck = _trapped(ProblemSpec(kind="example2", n=12), params.local_fitness, 550)
    bound = trap_escape_probability_bound(params)
    radii_ok = all(
        escape_radius(
            Solution(n, 1), make_problem(example2_set_cover(Example2Params(n)))
        ) == n
        for n in range(4, 11)
    )
    trapped_ratio = approximation_ratio(params.local_fitness, params.opt_fitness)
    ok = (
        improvements == 0
        and stuck
        and bound == float(Fraction(1, 12**12))
        and radii_ok
        and trapped_ratio == 2**12 / 11
    )
    return ok, (
        f"{improvements} improvements in 20x1e6 evaluations from the n=12 umbrella cover; "
        f"escape needs all n flips (radius == n verified for n=4..10), probability "
        f"{bound:.2e} per step; staying trapped costs {trapped_ratio:.1f}x the optimum"
    )


# ---------------------------------------------------------------------------
# c6: head-to-head at equal budget


def _basin_trajectory(record, params: Example1Params):
    """Classify one population-search trial by its best-feasible trajectory.

    Returns (entered, escaped, recovered): whether the best feasible solution
    was ever a member of the deceptive column-only optimum family, whether it
    later improved past that family's value (with 1% slack), and whether it
    later reached ratio >= 0.95.  Milestones log every strict improvement of
    the best, so the trajectory is complete, not sampled.
    """
    left_mask = (1 << params.left_count) - 1
    escape_bar = (params.local_fitness / params.opt_fitness + 0.01) * params.opt_fitness
    entered = escaped = recovered = False
    for milestone in record.snapshots:
        if milestone.best_solution is None:
            continue
        if entered:
            if milestone.best_fitness > escape_bar:
                escaped = True
            if milestone.best_fitness >= 0.95 * params.opt_fitness:
                recovered = True
            continue
        word = Solution.from_string(milestone.best_solution).word
        if word & left_mask == 0 and milestone.best_fitness == params.local_fitness:
            entered = True
    return entered, escaped, recovered


def _c6_head_to_head() -> tuple[bool, str]:
    params = Example1Params(30, Fraction(1, 10))
    spec = ProblemSpec(kind="example1", n=30, delta="1/10")
    shared = dict(budget=260_000, trials=50, milestone_every=10_000, workers=os.cpu_count() or 1)
    me = run_experiment(
        ExperimentConfig(problem=spec, algorithm="map-elites", master_seed=660, **shared)
    )
    ea = run_experiment(
        ExperimentConfig(problem=spec, algorithm="ea", master_seed=770, **shared)
    )
    me_hits = sum(r.ratio is not None and r.ratio >= 0.95 for r in me.records)
    ea_hits = sum(r.ratio is not None and r.ratio >= 0.95 for r in ea.records)
    trajectories = [_basin_trajectory(r, params) for r in ea.records]
    entered = sum(t[0] for t in trajectories)
    escaped = sum(t[1] for t in trajectories)
    recovered = sum(t[2] for t in trajectories)
    # With random starts, falling into the deceptive region is a matter of
    # luck, so no absolute count is demanded of the population search; the
    # separation claim is that trials which do commit to it stay near its
    # value, while the archive search reaches the optimum region regardless.
    ok = (
        me.aggregate.median_ratio is not None
        and me.aggregate.median_ratio >= 0.95
        and me_hits > recovered
    )
    return ok, (
        f"archive search: median ratio {me.aggregate.median_ratio:.3f}, {me_hits}/50 "
        f"trials at ratio >= 0.95; population search: median ratio "
        f"{ea.aggregate.median_ratio:.3f}, {ea_hits}/50 at ratio >= 0.95 overall, "
        f"{entered}/50 had a column-only best at some point, {escaped} of those later "
        f"beat its value, {recovered} reached ratio >= 0.95 after entering"
    )


# ---------------------------------------------------------------------------
# c7: invariants


def _chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with an integer ``df``: Q(df/2, x/2) in closed
    form (Abramowitz & Stegun 26.4.4-26.4.5), summed up from Q(1/2, h) =
    erfc(sqrt h) or Q(1, h) = exp(-h) by the step Q(a+1, h) = Q(a, h) +
    h**a exp(-h) / Gamma(a+1).  Each step is taken from its logarithm: a
    running product carrying exp(-h) underflows past x = 1416, where the tail
    at df = 60 is still 2.6e-257."""
    h = x / 2
    a, q = (0.5, math.erfc(math.sqrt(h))) if df % 2 else (1.0, math.exp(-h))
    while a < df / 2 and h > 0:
        q += math.exp(a * math.log(h) - h - math.lgamma(a + 1))
        a += 1
    return q


def _flat_run(run, n: int, cell_bits: int, init_count: int, budget: int, seed: int):
    """The kept words and the offspring probed by a run on ``n`` variables where
    every word scores 0, feasible, in the cell its top ``cell_bits`` bits name."""
    probed = []

    def probe_word(word):
        probed.append(word)
        return 0, word >> (n - cell_bits), True

    problem = Problem("flat", n, 1 << cell_bits, Direction.MAXIMIZE, probe_word)
    trace = run(problem, RunConfig(budget=budget, init_count=init_count, seed=seed))
    return trace.kept.words, probed[init_count:]


def _flip_count_pvalue(n: int) -> float:
    """The Pearson chi-square p-value of the flip counts of 50,000 offspring
    of a mu = 1 EA at ``n`` against their exact law, the tail pooled so no
    expected count is below 5.  The EA keeps its one member, and a probed
    child's count is its distance from it; the copies go unprobed."""
    samples = 50_000
    (member,), probed = _flat_run(run_ea, n, 0, 1, 1 + samples, 7000 + n)
    observed = [samples - len(probed)] + [0] * n
    for word in probed:
        observed[(word ^ member).bit_count()] += 1
    pmf = [float(Fraction(math.comb(n, k) * (n - 1) ** (n - k), n**n)) for k in range(n + 1)]
    cut = n + 1
    while cut > 1 and pmf[cut - 1] * samples < 5:
        cut -= 1
    obs = observed[:cut]
    exp = [p * samples for p in pmf[:cut]]
    if cut <= n:
        obs.append(sum(observed[cut:]))
        exp.append(sum(pmf[cut:]) * samples)
    statistic = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    return _chi2_sf(statistic, len(obs) - 1)


def _parent_pvalue() -> float:
    """The Pearson chi-square p-value of the parent cells of a 40,000-evaluation
    MAP-Elites run against a uniform pick.  64 init words fill the 8 cells of a
    flat 64-bit problem (its top 3 bits); with occupants 16 or more bits apart,
    a child of under 8 flips is nearest its parent.  Closer ones give p = 0."""
    occupants, probed = _flat_run(run_map_elites, 64, 3, 64, 40_000, 7100)
    if None in occupants or any((a ^ b).bit_count() < 16 for a, b in combinations(occupants, 2)):
        return 0.0
    observed = [0] * 8
    for word in probed:
        observed[min(range(8), key=lambda cell: (word ^ occupants[cell]).bit_count())] += 1
    expected = len(probed) / 8
    return _chi2_sf(sum((o - expected) ** 2 / expected for o in observed), 7)


def _check_mutation_law() -> Optional[str]:
    for n in (5, 30):
        pvalue = _flip_count_pvalue(n)
        if pvalue <= 0.01:
            return f"mutation flip-count law rejected at n={n} (p={pvalue:.4f})"
    pvalue = _parent_pvalue()
    if pvalue <= 0.01:
        return f"uniform parent law rejected (p={pvalue:.4f})"
    return None


def _check_greedy_gain_inequality() -> Optional[str]:
    # Coverage is submodular, so its submodularity ratio is 1 and the greedy
    # lemma reads k * gain(x) >= OPT - f(x), checked in exact integers.
    checked = 0
    rng = RandomSource(7300)
    while checked < 100:
        inst = random_max_coverage(10, 12, 0.35, 4, rng)
        x = Solution(10, rng.getrandbits(10))
        if x.ones() >= inst.k:
            continue
        opt = brute_force_opt(make_problem(inst)).fitness
        _idx, gain = best_greedy_gain(x, inst)
        if inst.k * gain < opt - reference_probe(x, inst)[0]:
            return f"greedy gain inequality violated (state {x.word:#x})"
        checked += 1
    return None


def _prefix_states(run, problem, init_count: int, seed: int, steps: int):
    """The container after init and after each of ``steps`` steps, one run per prefix.

    A run's draws do not depend on its budget, so the run with budget
    ``init_count + s`` ends in the state after step ``s`` of a longer run.
    """
    for budget in range(init_count, init_count + steps + 1):
        trace = run(problem, RunConfig(budget=budget, init_count=init_count, seed=seed))
        yield trace.kept


def _check_archive_cell_monotonicity() -> Optional[str]:
    problem = make_problem(example1_max_coverage(Example1Params(9, Fraction(1, 3))))
    states = _prefix_states(run_map_elites, problem, 10, 7400, 500)
    before = next(states).fitnesses
    for step, archive in enumerate(states):
        for cell, (old, new) in enumerate(zip(before, archive.fitnesses)):
            if old is not None and (new is None or new < old):
                return f"cell {cell} worsened from {old} to {new} at step {step}"
        before = archive.fitnesses
    return None


def _check_population_worst_monotonicity() -> Optional[str]:
    problem = make_problem(example2_set_cover(Example2Params(8)))
    states = _prefix_states(run_ea, problem, 8, 7500, 500)
    worst_before = next(states).worst()[0]
    for step, population in enumerate(states):
        worst_now = population.worst()[0]
        if worst_now > worst_before:  # minimization: the worst may only shrink
            return f"population worst went from {worst_before} to {worst_now} at step {step}"
        worst_before = worst_now
    return None


def _probe_oracle_instances():
    """Two small instances, then one of each kind at n = 12, a table lookup,
    and at n = 13, the chunk walk and its memo."""
    return (
        example1_max_coverage(Example1Params(9, Fraction(1, 3))),
        example2_set_cover(Example2Params(8)),
        example1_max_coverage(Example1Params(12, Fraction(1, 4))),
        example2_set_cover(Example2Params(12)),
        random_max_coverage(13, 11, 0.3, 4, RandomSource(31)),
        random_set_cover(13, 11, 0.3, 7, RandomSource(32)),
    )


def _check_probe_oracle() -> Optional[str]:
    # Every word, not a sample: a wrong entry in one of the probe's 8-bit
    # chunk tables shows only on the 1 in 256 words whose byte selects it.
    for inst in _probe_oracle_instances():
        *_, fault = _independent_enumeration(make_problem(inst))
        if fault is not None:
            return fault
    return None


def _check_evaluation_conservation() -> Optional[str]:
    problem = make_problem(example1_max_coverage(Example1Params(9, Fraction(1, 3))))
    for budget, init in ((10, 10), (137, 10), (400, 25)):
        trace = run_map_elites(problem, RunConfig(budget=budget, init_count=init, seed=7600))
        if trace.evaluations_used != budget:
            return f"archive run used {trace.evaluations_used} of {budget} evaluations"
        ea = run_ea(problem, RunConfig(budget=budget, init_count=init, seed=7601))
        if ea.evaluations_used != budget:
            return f"population run used {ea.evaluations_used} of {budget} evaluations"
    return None


def _check_determinism() -> Optional[str]:
    problem = make_problem(example2_set_cover(Example2Params(8)))
    config = RunConfig(budget=500, init_count=8, seed=7700)
    if run_map_elites(problem, config) != run_map_elites(problem, config):
        return "same seed, different archive trace"
    if run_ea(problem, config) != run_ea(problem, config):
        return "same seed, different population trace"
    return None


_INVARIANT_CHECKS: tuple[tuple[str, Callable[[], Optional[str]]], ...] = (
    ("mutation-law", _check_mutation_law),
    ("greedy-gain", _check_greedy_gain_inequality),
    ("archive-cells", _check_archive_cell_monotonicity),
    ("population-worst", _check_population_worst_monotonicity),
    ("probe-oracle", _check_probe_oracle),
    ("conservation", _check_evaluation_conservation),
    ("determinism", _check_determinism),
)


def _c7_invariants() -> tuple[bool, str]:
    for name, check in _INVARIANT_CHECKS:
        failure = check()
        if failure is not None:
            return False, f"invariant group '{name}' failed: {failure}"
    return True, f"{len(_INVARIANT_CHECKS)}/{len(_INVARIANT_CHECKS)} invariant groups hold"


# ---------------------------------------------------------------------------
# Registry and runners


_CRITERIA: dict[str, tuple[str, float, Callable[[], tuple[bool, str]]]] = {
    "c1": ("exact oracles and greedy baselines agree", 60.0, _c1_oracle_agreement),
    "c2": ("archive search reaches (1-1/e) quality on the bipartite family", 300.0, _c2_archive_reaches_near_optimal),
    "c3": ("archive search finds a harmonic-factor cover of the umbrella family", 120.0, _c3_archive_covers_cheaply),
    "c4": ("population search stays trapped on the bipartite family (n=60)", 300.0, _c4_bipartite_trap),
    "c5": ("population search stays trapped on the umbrella family (n=12)", 120.0, _c5_umbrella_trap),
    "c6": ("head-to-head at equal budget favors the archive search", 600.0, _c6_head_to_head),
    "c7": ("distributional and structural invariants", 120.0, _c7_invariants),
}

CRITERION_IDS = tuple(_CRITERIA)


def criterion_summary() -> list[tuple[str, str]]:
    return [(cid, name) for cid, (name, _, _) in _CRITERIA.items()]


def _criterion(cid: str) -> tuple[str, float, Callable[[], tuple[bool, str]]]:
    if cid not in _CRITERIA:
        raise ParameterError(
            f"unknown criterion {cid!r}; expected one of {', '.join(CRITERION_IDS)}"
        )
    return _CRITERIA[cid]


def run_criterion(cid: str) -> CriterionResult:
    name, limit, func = _criterion(cid)
    start = time.perf_counter()
    ok, details = func()
    seconds = time.perf_counter() - start
    if ok and seconds > limit:
        ok = False
        details += f" [exceeded the {limit:.0f}s wall-clock limit]"
    return CriterionResult(cid, name, ok, seconds, limit, details)


def run_all(only=None, report: Optional[Callable[[str], None]] = None) -> list[CriterionResult]:
    ids = CRITERION_IDS if only is None else tuple(only)
    for i, cid in enumerate(ids):  # every id is checked before any criterion runs
        _criterion(cid)
        if cid in ids[:i]:
            raise ParameterError(f"criterion {cid!r} is named twice")
    results = []
    for cid in ids:
        result = run_criterion(cid)
        if report is not None:
            report(result.line())
        results.append(result)
    return results
