"""The two search engines: MAP-Elites over a cell grid and a (mu+1) EA.

Both engines share the same primitive moves (uniform parent choice, standard
bit-flip mutation, one evaluation per offspring) and differ only in what they
keep: the archive retains the best solution seen per behaviour cell, the EA a
fixed-size population whose worst member is evicted by strictly better
offspring.  So both run through one loop, ``_run``, which hands every
offspring as ``(word, result)`` to its container's keep policy,
``Archive.consider`` or ``Population.replace_worst_if_better``.  Each
container is built with the problem's direction and the run's ``strict``
flag, so the keep rule is fixed for the whole run.  Every generated solution
costs exactly one evaluation, so a run uses ``init_count + steps``
evaluations and a fixed seed reproduces the full trace bit for bit.

Per-step random draws happen in a fixed order (parent index, mutation mask,
then — only when an eviction has several tied victims — one tie-break draw,
which the population takes from the run's stream), which is what makes
traces reproducible.

Inside a run a solution is its int bit word: mutation XORs the parent's
word with a flip word from ``core.flip_sampler`` and ``Problem.probe_word``
evaluates it.  Archive and population share one member store, ``_Members``,
which keeps each member's word with its ``probe_word`` result ``(fitness,
cell, feasible)``; each adds only its keep policy.  Everything read after
the run (fitnesses, QD metrics) comes from those results.  A ``Solution`` is
built only for what leaves the run: milestone strings, the best solution of
the trace, and members read from a container.  An offspring
whose flip word is 0 is a copy of its parent and reuses the parent's result
instead of being probed again; it still counts as one evaluation and still
goes through the keep step.

``_run`` keeps the run's trace itself: the best feasible solution, the
first hit and the milestone log.  Every offspring goes through the keep step,
but only an evaluation that can change the trace is noted; the loop counts
the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite
from typing import Optional

from .core import RandomSource, Solution, flip_sampler
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

    def met(self, fitness: Fitness, cell: int, feasible: bool, direction: Direction) -> bool:
        if self.require_feasible and not feasible:
            return False
        if self.required_cell is not None and cell != self.required_cell:
            return False
        return comparison(direction, self.strict)(fitness, self.threshold)


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
        if self.milestone_every is not None and self.milestone_every < 1:
            raise ParameterError(f"milestone_every must be positive, got {self.milestone_every}")

    @property
    def milestone_interval(self) -> int:
        return self.milestone_every or max(1, ceil(self.budget / 1000))


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
    """Complete account of one run; same seed and config give an equal trace."""

    algorithm: str
    evaluations_used: int
    first_hit: Optional[int]
    best_fitness: Optional[Fitness]
    best_solution: Optional[Solution]
    milestones: tuple[Milestone, ...]
    archive: Optional["Archive"] = None
    population: Optional["Population"] = None


class _Members:
    """The member store both keep policies share: bit words of ``n``
    variables, each kept with its ``probe_word`` result ``(fitness, cell,
    feasible)``, and the keep rule's comparison ``beats``, bound at
    construction from ``direction`` and ``strict``.  ``solutions`` builds
    ``Solution``s when read.  Two stores are equal when they are of the same
    kind and hold the same words and results.
    """

    __slots__ = ("n", "direction", "beats", "words", "results")

    def __init__(self, n: int, direction: Direction, strict: bool, size: int = 0):
        self.n = n
        self.direction = direction
        self.beats = comparison(direction, strict)
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
    worst-member scan is cached between evictions, which makes stagnating
    runs (the interesting ones) cheap.
    """

    __slots__ = ("rng", "_worst_cache")

    def __init__(self, n: int, direction: Direction, rng: RandomSource, strict: bool = True):
        super().__init__(n, direction, strict)
        self.rng = rng
        self._worst_cache: Optional[tuple[Fitness, list[int]]] = None

    def __len__(self) -> int:
        return len(self.words)

    def add(self, word: int, result: Result) -> None:
        self.words.append(word)
        self.results.append(result)
        self._worst_cache = None

    def worst(self) -> tuple[Fitness, list[int]]:
        """Worst fitness value and the indices holding it (i.e. eviction candidates)."""
        if self._worst_cache is None:
            fits = self.fitnesses
            value = min(fits) if self.direction is Direction.MAXIMIZE else max(fits)
            self._worst_cache = (value, [i for i, f in enumerate(fits) if f == value])
        return self._worst_cache

    def replace_worst_if_better(self, word: int, result: Result) -> Optional[int]:
        """Evict one worst member if ``word`` beats it; ties for worst are
        broken uniformly at random.  Returns the replaced index, or None."""
        worst_value, candidates = self._worst_cache or self.worst()
        if not self.beats(result[0], worst_value):
            return None
        victim = candidates[self.rng.randrange(len(candidates))] if len(candidates) > 1 else candidates[0]
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
    a target cell outside the problem's cells, or seed members given to the
    archive or of another length than the problem's."""
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
    population indices), XORs its word with a flip word, probes the child
    unless the flip word is 0 (a copy) and hands it to the keep policy.
    ``note`` keeps the trace: the best feasible solution, the first hit and
    the milestone log.  The loop counts every evaluation itself and notes one
    only if it can change the trace: it ends a milestone interval, it is
    feasible and beats the best so far, or it reaches the target's threshold
    while no hit is recorded.
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
    flip = flip_sampler(n, rng)  # the module global at run time, so a rebinding takes effect
    archive = population = None
    if algorithm == "map-elites":
        archive = Archive(problem.num_cells, n, direction, config.strict)
        words, results, slots = archive.words, archive.results, archive.occupied
        occupancy = slots.__len__
        admit = keep = archive.consider
    else:
        population = Population(n, direction, rng, config.strict)
        words, results, slots = population.words, population.results, range(config.init_count)

        def occupancy() -> int:
            return len({r[1] for r in results})

        admit, keep = population.add, population.replace_worst_if_better
    better = comparison(direction)
    interval = config.milestone_interval
    milestones: list[Milestone] = []
    evals = 0
    # The first hit, and the best feasible fitness with its solution and milestone string.
    first_hit = best = best_solution = best_string = None

    def note(word: int, result: Result) -> None:
        """Account for evaluation number ``evals``, which produced ``word``."""
        nonlocal first_hit, best, best_solution, best_string
        fitness, cell, feasible = result
        improved = feasible and (best is None or better(fitness, best))
        if improved:
            best, best_solution = fitness, Solution(n, word)
            best_string = best_solution.to_string()
        if first_hit is None and target is not None and target.met(fitness, cell, feasible, direction):
            first_hit = evals
        if improved or evals % interval == 0:
            milestones.append(Milestone(evals, best, occupancy(), best_string))

    for word in init_words:
        result = probe_word(word)
        admit(word, result)
        evals += 1
        note(word, result)
    # A target met by an init member ends the run before its first step.
    budget = evals if config.stop_on_target and first_hit is not None else config.budget
    getrandbits = rng.getrandbits
    # The threshold comparison of target.met on its own: necessary for a hit,
    # and cheap enough to test on every evaluation.
    reaches = None if target is None else comparison(direction, target.strict)
    threshold = None if target is None else target.threshold
    watching = target is not None and first_hit is None
    next_milestone = evals - evals % interval + interval
    # rng.randrange(len(slots)), inlined as in flip_sampler.  len(slots)
    # changes only when the archive fills a new cell, which only a kept
    # offspring (consider returns True) can do; the population never grows,
    # so a falsy victim index 0 from its keep skips nothing.
    size = len(slots)
    k = size.bit_length()
    while evals < budget:
        r = getrandbits(k)
        while r >= size:
            r = getrandbits(k)
        index = slots[r]
        mask = flip()
        if mask:
            word = words[index] ^ mask
            result = probe_word(word)
        else:
            word = words[index]
            result = results[index]
        if keep(word, result) and len(slots) != size:
            size = len(slots)
            k = size.bit_length()
        evals += 1
        fitness, _cell, feasible = result
        if (
            evals == next_milestone
            or (feasible and (best is None or better(fitness, best)))
            or (watching and reaches(fitness, threshold))
        ):
            note(word, result)
            if evals == next_milestone:
                next_milestone += interval
            if first_hit is not None:
                if config.stop_on_target:
                    break
                watching = False
    if not milestones or milestones[-1].evaluations != evals:
        milestones.append(Milestone(evals, best, occupancy(), best_string))
    return RunTrace(
        algorithm=algorithm,
        evaluations_used=evals,
        first_hit=first_hit,
        best_fitness=best,
        best_solution=best_solution,
        milestones=tuple(milestones),
        archive=archive,
        population=population,
    )
