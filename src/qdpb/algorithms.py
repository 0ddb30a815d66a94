"""The two search engines: MAP-Elites over a cell grid and a (mu+1) EA.

Both engines share the same primitive moves (uniform parent choice, standard
bit-flip mutation, one evaluation per offspring) and differ only in what they
keep: the archive retains the best solution seen per behaviour cell, the EA a
fixed-size population whose worst member is evicted by strictly better
offspring.  So both run through one loop, ``_run``, which hands each
offspring that could be kept (see the fitness gate below) as ``(word,
result)`` to its container's keep policy,
``Archive.consider`` or ``Population.replace_worst_if_better``.  Each
container is built with the problem's direction and the run's ``strict``
flag, so the keep rule is fixed for the whole run.  Every generated solution
costs exactly one evaluation, so a run uses ``init_count + steps``
evaluations and a fixed seed reproduces the full trace bit for bit.

Per-step random draws happen in a fixed order (parent index, mutation mask,
then — only when an eviction has several tied victims — one tie-break draw,
which the population takes from the run's stream), which is what makes
traces reproducible.

Inside a run a solution is its int bit word: mutation XORs the parent's word
with a flip word, drawn inline as ``core.bitwise_mutate`` draws it, and
``Problem.probe_word`` evaluates it.  Archive and population share one
member store, ``_Members``, which keeps each member's word with its
``probe_word`` result ``(fitness, cell, feasible)``; each adds only its keep
policy.  Everything read after the run (fitnesses, QD metrics) comes from
those results.  A ``Solution`` is built only for what leaves the run:
milestone strings, the best solution of the trace, and members read from a
container.  An offspring whose flip word is 0 is a copy of its parent and
reuses the parent's result instead of being probed again; it still counts as
one evaluation and is judged like any other offspring.

``_run`` keeps the run's trace itself: the best feasible solution, the
first hit and the milestone log.

A fitness gate decides which offspring reach the keep step at all.  An
offspring can change the trace only by beating the best feasible fitness or,
while the run watches for a hit, by reaching the target's threshold; their
weaker is the gate's cap.  It can change the population only by beating the
worst member, and the archive only by beating the incumbent of its own cell.
So the EA's gate is the weaker of its worst fitness and the cap, and each
held archive cell has a bar, the weaker of its incumbent and the cap; an
empty cell, and every cell before a feasible solution is seen, has none.
An offspring that does not pass its gate can be neither kept nor noted, so
the loop only counts it, and logs its milestone row if its evaluation ends
an interval.  In a run parked at a local optimum, and in an archive once a
feasible solution is seen, that is nearly every offspring.  Every offspring
past its gate takes one path: the keep policy, then ``note``, then, if
either changed something (a new best, the first hit, or an accept that does
not tie the gate it passed), every gate is recomputed.  An accept that ties
its gate can only happen under a relaxed keep rule; it swaps a member for
one of equal fitness, so it moves no gate.  The gate compares strictly only
when the keep rule and, while the run watches, the target both do.  It
draws nothing from the stream and changes no trace.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from math import ceil, isfinite
from typing import Callable, Optional

from .core import RandomSource, Solution, flip_count_cdf
from .errors import ParameterError, require_bools, require_ints, require_numbers
from .problems import Direction, Fitness, Problem, Result, comparison

__all__ = [
    "QualityTarget",
    "RunConfig",
    "Milestone",
    "RunTrace",
    "Archive",
    "Population",
    "run_map_elites",
    "run_ea",
]


@dataclass(frozen=True)
class QualityTarget:
    """Success condition checked after every single evaluation.

    ``threshold`` is direction-aware: reaching it means being at least as
    good (or strictly better with ``strict=True``).  Optional extras restrict
    success to feasible solutions or to one behaviour cell.
    """

    threshold: Fitness
    strict: bool = False
    require_feasible: bool = True
    required_cell: Optional[int] = None

    def __post_init__(self) -> None:
        require_numbers(self, ("threshold",))
        if isinstance(self.threshold, float) and not isfinite(self.threshold):
            raise ParameterError(f"threshold must be finite, got {self.threshold!r}")
        require_ints(self, (), optional=("required_cell",))
        require_bools(self, ("strict", "require_feasible"))

    def met_under(self, direction: Direction) -> Callable[[Fitness, int, bool], bool]:
        """Whether an evaluation's ``(fitness, cell, feasible)`` meets the
        target under ``direction``, with the threshold comparison bound once
        for a loop that asks after every evaluation."""
        reaches, threshold = comparison(direction, self.strict), self.threshold
        require_feasible, required_cell = self.require_feasible, self.required_cell
        return lambda fitness, cell, feasible: (
            (feasible or not require_feasible)
            and (required_cell is None or cell == required_cell)
            and reaches(fitness, threshold)
        )


# Milestone rows one run, or all trials of an experiment, may log.  A row
# held ~290 bytes of memory (and wrote ~200 bytes of document), so the limit
# is about 300 MB.  Improvement rows, bounded by the distinct fitness values,
# are not counted.
_MILESTONE_ROW_LIMIT = 2**20


def _milestone_interval(budget: int, milestone_every: Optional[int]) -> int:
    """Evaluations between milestone rows: ``milestone_every``, else budget/1000 rounded up."""
    return milestone_every or max(1, ceil(budget / 1000))


def check_milestone_log(budget: int, milestone_every: Optional[int], trials: int = 1) -> None:
    """Refuse a non-positive ``milestone_every``, or ``trials`` runs of
    ``budget`` evaluations that would log more than ``_MILESTONE_ROW_LIMIT``
    milestone rows in all."""
    if milestone_every is not None and milestone_every < 1:
        raise ParameterError(f"milestone_every must be positive, got {milestone_every}")
    interval = _milestone_interval(budget, milestone_every)
    rows = trials * -(-budget // interval)
    if rows > _MILESTONE_ROW_LIMIT:
        raise ParameterError(
            f"{trials} trial(s) of budget {budget} with a milestone every {interval} evaluations "
            f"would log about {rows:,} rows, over the {_MILESTONE_ROW_LIMIT:,} row limit"
        )


# Members an EA population may hold.  A member took 46 B of memory on
# umbrella12 (tabulated results), 66 B on bipartite60 and 160 B on a random
# set cover at n = 60 (a fresh result tuple each; CPython 3.11, mu = 400k),
# so a full population takes at most ~340 MB.  The archive keeps one member
# per cell and needs no limit.
_POPULATION_LIMIT = 2**21


def check_population(algorithm: str, init_count: int) -> None:
    """Refuse an EA population of more than ``_POPULATION_LIMIT`` members."""
    if algorithm == "ea" and init_count > _POPULATION_LIMIT:
        raise ParameterError(
            f"an EA population of {init_count:,} members is over the {_POPULATION_LIMIT:,} member limit"
        )


@dataclass(frozen=True)
class RunConfig:
    """Everything a single run needs besides the problem itself.

    ``init_count`` is the number of initial solutions (the archive fill size,
    or the population size mu).  ``initial_population`` replaces the random
    initialization of the EA — used to drop a population straight into a
    local optimum.  Milestones are logged every ``milestone_every``
    evaluations (default: budget/1000, rounded up) and additionally whenever
    the best feasible fitness strictly improves.
    """

    budget: int
    init_count: int
    seed: int
    target: Optional[QualityTarget] = None
    strict: bool = True
    stop_on_target: bool = True
    initial_population: Optional[tuple[Solution, ...]] = None
    milestone_every: Optional[int] = None

    def __post_init__(self) -> None:
        require_ints(self, ("budget", "init_count"), optional=("milestone_every",))
        require_bools(self, ("strict", "stop_on_target"))
        if self.target is not None and not isinstance(self.target, QualityTarget):
            raise ParameterError(f"target must be a QualityTarget or None, got {self.target!r}")
        for x in self.initial_population or ():
            if not isinstance(x, Solution):
                raise ParameterError(f"initial_population members must be Solutions, got {x!r}")
        if self.init_count < 1:
            raise ParameterError(f"init_count must be positive, got {self.init_count}")
        if self.budget < self.init_count:
            raise ParameterError(
                f"budget {self.budget} cannot be smaller than init_count {self.init_count}"
            )
        if self.initial_population is not None and len(self.initial_population) != self.init_count:
            raise ParameterError(
                f"initial_population has {len(self.initial_population)} members, "
                f"expected init_count={self.init_count}"
            )
        check_milestone_log(self.budget, self.milestone_every)

    @property
    def milestone_interval(self) -> int:
        return _milestone_interval(self.budget, self.milestone_every)


@dataclass(frozen=True, slots=True)
class Milestone:
    """One log row: state after ``evaluations`` evaluations.

    ``best_fitness``/``best_solution`` track the best feasible solution seen
    so far (None before the first feasible one); ``occupied`` is the number
    of occupied cells for the archive, or the number of distinct descriptor
    values in the population for the EA.
    """

    evaluations: int
    best_fitness: Optional[Fitness]
    occupied: int
    best_solution: Optional[str]


@dataclass
class RunTrace:
    """Complete account of one run; same seed and config give an equal trace.
    ``kept`` is the container the run filled: the ``Archive`` for MAP-Elites,
    the ``Population`` for the EA."""

    algorithm: str
    evaluations_used: int
    first_hit: Optional[int]
    best_fitness: Optional[Fitness]
    best_solution: Optional[Solution]
    milestones: tuple[Milestone, ...]
    kept: Archive | Population


class _Members:
    """The member store both keep policies share: bit words of ``n``
    variables, each kept with its ``probe_word`` result ``(fitness, cell,
    feasible)``, and the keep rule's comparison ``beats``, bound at
    construction from ``direction`` and ``strict``, and ``weakest``, the
    ``min`` or ``max`` that picks the worst of fitness values.  ``solutions``
    builds ``Solution``s when read.  Two stores are equal when they are of
    the same kind and hold the same words and results.
    """

    __slots__ = ("n", "direction", "beats", "weakest", "words", "results")

    def __init__(self, n: int, direction: Direction, strict: bool, size: int = 0):
        self.n = n
        self.direction = direction
        self.beats = comparison(direction, strict)
        self.weakest = min if direction is Direction.MAXIMIZE else max
        self.words: list[Optional[int]] = [None] * size
        self.results: list[Optional[Result]] = [None] * size

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.words == other.words
            and self.results == other.results
        )

    __hash__ = None

    @property
    def fitnesses(self) -> list[Optional[Fitness]]:
        return [None if result is None else result[0] for result in self.results]

    @property
    def solutions(self) -> list[Optional[Solution]]:
        n = self.n
        return [None if word is None else Solution(n, word) for word in self.words]


class Archive(_Members):
    """Fixed grid of ``num_cells`` cells holding at most one solution each.

    An occupant is replaced only by strictly better fitness under
    ``direction`` (or at-least-as-good with ``strict=False``), so cells never
    empty once filled and per-cell fitness can only move in the improving
    direction.  An empty cell's word and result are None.
    """

    __slots__ = ("num_cells", "occupied")

    def __init__(self, num_cells: int, n: int, direction: Direction, strict: bool = True):
        if num_cells < 1:
            raise ParameterError(f"num_cells must be positive, got {num_cells}")
        super().__init__(n, direction, strict, num_cells)
        self.num_cells = num_cells
        self.occupied: list[int] = []  # fill order; supports O(1) uniform parent choice

    def __len__(self) -> int:
        return len(self.occupied)

    def occupants(self) -> list[tuple[int, Solution, Fitness]]:
        n, words, results = self.n, self.words, self.results
        return [(c, Solution(n, words[c]), results[c][0]) for c in sorted(self.occupied)]

    def consider(self, word: int, result: Result) -> bool:
        """Keep ``word`` in the cell its ``result`` names if that cell is
        empty or the incumbent is beaten."""
        fitness, cell, _feasible = result
        if not 0 <= cell < self.num_cells:
            raise ParameterError(f"cell {cell} outside 0..{self.num_cells - 1}")
        incumbent = self.results[cell]
        if incumbent is None:
            self.occupied.append(cell)
        elif not self.beats(fitness, incumbent[0]):
            return False
        self.words[cell] = word
        self.results[cell] = result
        return True


class Population(_Members):
    """The (mu+1) EA's multiset of solutions.

    An offspring evicts one worst member if it is strictly better under
    ``direction`` (or at least as good with ``strict=False``), and ties for
    worst are broken with draws from ``rng``, the run's stream.  The
    population starts empty and ``add`` admits the initial members.  The
    worst-member scan is cached between evictions, so after an accept the
    run loop's fitness gate and the next keep share one scan; a stagnating
    run stops at the gate and never reaches keep.
    ``cell_counts`` maps each cell the members' results name to how many
    members name it, so its length is the population's occupancy.
    """

    __slots__ = ("rng", "_worst_cache", "cell_counts")

    def __init__(self, n: int, direction: Direction, rng: random.Random, strict: bool = True):
        super().__init__(n, direction, strict)
        self.rng = rng
        self._worst_cache: Optional[tuple[Fitness, list[int]]] = None
        self.cell_counts: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.words)

    def add(self, word: int, result: Result) -> None:
        self.words.append(word)
        self.results.append(result)
        self._worst_cache = None
        counts = self.cell_counts
        counts[result[1]] = counts.get(result[1], 0) + 1

    def worst(self) -> tuple[Fitness, list[int]]:
        """Worst fitness value and the indices holding it (i.e. eviction candidates)."""
        if self._worst_cache is None:
            fits = self.fitnesses
            value = self.weakest(fits)
            self._worst_cache = (value, [i for i, f in enumerate(fits) if f == value])
        return self._worst_cache

    def replace_worst_if_better(self, word: int, result: Result) -> Optional[int]:
        """Evict one worst member if ``word`` beats it; ties for worst are
        broken uniformly at random.  Returns the replaced index, or None."""
        worst_value, candidates = self._worst_cache or self.worst()
        if not self.beats(result[0], worst_value):
            return None
        victim = candidates[self.rng.randrange(len(candidates))] if len(candidates) > 1 else candidates[0]
        counts = self.cell_counts
        evicted = self.results[victim][1]
        if counts[evicted] == 1:
            del counts[evicted]
        else:
            counts[evicted] -= 1
        counts[result[1]] = counts.get(result[1], 0) + 1
        self.words[victim] = word
        self.results[victim] = result
        self._worst_cache = None
        return victim


# ---------------------------------------------------------------------------
# Full runs


def run_map_elites(problem: Problem, config: RunConfig) -> RunTrace:
    """Fill an archive with random solutions, then step it until the budget runs out or the target is hit."""
    return _run("map-elites", problem, config)


def run_ea(problem: Problem, config: RunConfig) -> RunTrace:
    """Initialize a population (random or seeded), then run (mu+1) steps."""
    return _run("ea", problem, config)


def check_run(algorithm: str, problem: Problem, config: RunConfig) -> None:
    """Refuse a ``config`` that does not fit ``problem`` or ``algorithm``:
    a target cell outside the problem's cells, an EA population over the
    member limit, or seed members given to the archive or of another length
    than the problem's."""
    check_population(algorithm, config.init_count)
    target = config.target
    required_cell = None if target is None else target.required_cell
    if required_cell is not None and not 0 <= required_cell < problem.num_cells:
        raise ParameterError(f"target cell {required_cell} outside 0..{problem.num_cells - 1}")
    members = config.initial_population
    if members is not None:
        if algorithm == "map-elites":
            raise ParameterError("initial_population is an EA feature; the archive self-seeds")
        for x in members:
            if x.n != problem.n:
                raise ParameterError(f"seed member has {x.n} variables, problem has {problem.n}")


def _run(algorithm: str, problem: Problem, config: RunConfig) -> RunTrace:
    """The loop both engines share; only the container and its keep policy differ.

    Each init member is probed, kept and noted in turn.  Each step then picks
    a parent uniformly from ``slots`` (the archive's occupied cells, or the mu
    population indices) and draws its flip word inline, as
    ``core.bitwise_mutate`` does: one uniform ``u`` and, unless ``u`` is below
    P(no flip), the flip positions; only counts above 1 bisect the CDF.  A
    copy (no flip) takes its parent's word and result; any other child is the
    parent's word XOR the flip word, probed.  The loop hands the child to the
    keep policy and then to ``note``, which keeps the trace: the best
    feasible solution, the first hit and the milestone log.  When ``note``
    reports a new best or the first hit, or the keep policy accepted an
    offspring that does not tie the gate it passed, ``regate`` recomputes the
    gates.

    Before all that, the fitness gate of the module docstring turns away an
    offspring that could change nothing; the loop counts it and logs its
    milestone row itself.  ``gate`` is the EA's gate, None for the archive
    and before a feasible solution is seen; ``bars`` maps each held archive
    cell to its bar, and is empty for the EA and before a feasible solution
    is seen.  A cell that is not a key of ``bars`` has no bar, so an
    offspring whose cell is outside the grid still reaches
    ``Archive.consider``, which refuses it.  ``passes`` is the comparison an
    offspring's fitness must pass a gate by.  An offspring that ties it may
    still be kept by a relaxed keep rule or, while no hit is recorded, meet
    a non-strict target, so ``passes`` admits ties unless both are strict
    (the best only improves strictly).
    """
    n = problem.n
    direction = problem.direction
    target = config.target
    check_run(algorithm, problem, config)
    rng = RandomSource(config.seed)
    members = config.initial_population
    if members is not None:
        init_words = [x.word for x in members]
    else:
        init_words = (rng.getrandbits(n) for _ in range(config.init_count))
    probe_word = problem.probe_word
    archive = None
    if algorithm == "map-elites":
        container = archive = Archive(problem.num_cells, n, direction, config.strict)
        words, results, slots = archive.words, archive.results, archive.occupied
        occupancy = slots.__len__
        admit = keep = archive.consider
        rejected = False  # what keep returns for an offspring it does not keep
    else:
        container = Population(n, direction, rng, config.strict)
        words, results, slots = container.words, container.results, range(config.init_count)
        occupancy = container.cell_counts.__len__
        admit, keep = container.add, container.replace_worst_if_better
        rejected = None
    better = comparison(direction)
    hits = None if target is None else target.met_under(direction)
    interval = config.milestone_interval
    milestones: list[Milestone] = []
    evals = 0
    # The first hit, and the best feasible fitness with its solution and milestone string.
    first_hit = best = best_solution = best_string = None

    def note(word: int, result: Result) -> bool:
        """Account for evaluation number ``evals``, which produced ``word``;
        True when it improved the best or is the first hit, which moves the gates."""
        nonlocal first_hit, best, best_solution, best_string
        fitness, cell, feasible = result
        improved = feasible and (best is None or better(fitness, best))
        if improved:
            best, best_solution = fitness, Solution(n, word)
            best_string = best_solution.to_string()
        hit = first_hit is None and hits is not None and hits(fitness, cell, feasible)
        if hit:
            first_hit = evals
        if improved or evals % interval == 0:
            milestones.append(Milestone(evals, best, occupancy(), best_string))
        return improved or hit

    for word in init_words:
        result = probe_word(word)
        admit(word, result)
        evals += 1
        note(word, result)
    # A target met by an init member ends the run before its first step.
    budget = evals if config.stop_on_target and first_hit is not None else config.budget
    getrandbits = rng.getrandbits
    weakest = container.weakest
    # The gate's comparison, indexed by whether the run watches for a hit.
    passes_when = (
        comparison(direction, config.strict),
        comparison(direction, config.strict and (target is None or target.strict)),
    )

    def regate() -> tuple:
        """``(passes, gate, bars)``, recomputed from the best, the first hit and the container."""
        if best is None:
            return None, None, {}
        watching = target is not None and first_hit is None
        cap = weakest(best, target.threshold) if watching else best
        passes = passes_when[watching]
        if archive is None:
            return passes, weakest(container.worst()[0], cap), {}
        held = archive.results
        return passes, None, {cell: weakest(held[cell][0], cap) for cell in archive.occupied}

    passes, gate, bars = regate()
    next_milestone = evals - evals % interval + interval
    # The parent: rng.randrange(len(slots)), inlined.  len(slots) changes
    # only when the archive fills a new cell, which only a kept offspring can
    # do; the population never grows.
    size = len(slots)
    k = size.bit_length()
    # The flip word: core.bitwise_mutate's draw, inlined.
    cdf = flip_count_cdf(n)
    cdf0, cdf1 = cdf[0], cdf[1]
    uniform = rng.random
    bits = n.bit_length()
    for evals in range(evals + 1, budget + 1):
        r = getrandbits(k)
        while r >= size:
            r = getrandbits(k)
        index = slots[r]
        u = uniform()
        if u < cdf0:  # no flip: a copy, judged on its parent's result
            word = words[index]
            result = results[index]
        else:
            # The first position cannot repeat; the others are redrawn while they do.
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            mask = 1 << r
            if u >= cdf1:
                count = bisect_right(cdf, u) - 1
                while count:
                    r = getrandbits(bits)
                    while r >= n:
                        r = getrandbits(bits)
                    bit = 1 << r
                    if not mask & bit:
                        mask |= bit
                        count -= 1
            word = words[index] ^ mask
            result = probe_word(word)
        if (
            gate is not None and not passes(result[0], gate)
            or bars and (bar := bars.get(result[1])) is not None and not passes(result[0], bar)
        ):
            if evals == next_milestone:
                milestones.append(Milestone(evals, best, occupancy(), best_string))
                next_milestone += interval
            continue
        kept = keep(word, result) is not rejected
        if kept and len(slots) != size:
            size = len(slots)
            k = size.bit_length()
        if evals == next_milestone:
            next_milestone += interval
        # An accept that ties the gate it passed leaves every gate where it was.
        if note(word, result) or kept and result[0] != (gate if gate is not None else bars.get(result[1])):
            if config.stop_on_target and first_hit is not None:
                break
            passes, gate, bars = regate()
    if not milestones or milestones[-1].evaluations != evals:
        milestones.append(Milestone(evals, best, occupancy(), best_string))
    return RunTrace(
        algorithm=algorithm,
        evaluations_used=evals,
        first_hit=first_hit,
        best_fitness=best,
        best_solution=best_solution,
        milestones=tuple(milestones),
        kept=container,
    )
