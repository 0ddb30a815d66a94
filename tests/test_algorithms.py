"""Engine behaviour tests: archive discipline, eviction rules, trace accounting."""

import copy
import dataclasses
import math
import operator
import pickle
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdpb import algorithms
from qdpb.algorithms import (
    Archive,
    Population,
    QualityTarget,
    RunConfig,
    run_ea,
    run_map_elites,
)
from qdpb.acceptance import _prefix_states as prefix_states
from qdpb.analysis import brute_force_opt
from qdpb.core import RandomSource, Solution
from qdpb.errors import ParameterError
from qdpb.instances import (
    Example1Params,
    Example2Params,
    example1_local_optimum,
    example1_max_coverage,
    example2_local_optimum,
    example2_set_cover,
    random_max_coverage,
    random_set_cover,
)
from qdpb.problems import Direction, Problem, comparison, make_problem

from test_core import exact_flip_count_cdf, plain_flip_draw

S = Solution.from_string


def W(text):
    return S(text).word


def R(fitness, cell=0):
    """A feasible probe result ``(fitness, cell, feasible)``."""
    return fitness, cell, True


def filled(population, texts, fitnesses):
    for text, fitness in zip(texts, fitnesses):
        population.add(W(text), R(fitness))
    return population


def small_problem(seed=5):
    return make_problem(random_max_coverage(6, 8, 0.4, 3, RandomSource(seed)))


# ---------------------------------------------------------------------------
# Archive update rule


def test_archive_insert_rules():
    a = Archive(4, 4, Direction.MAXIMIZE)
    x, y = S("1010"), S("0110")
    assert a.consider(x.word, R(5, 2))          # empty cell fills
    assert not a.consider(y.word, R(4, 2))      # worse rejected
    assert not a.consider(y.word, R(5, 2))      # equal rejected when strict
    assert a.occupants() == [(2, x, 5)]
    assert a.consider(y.word, R(6, 2))          # strictly better replaces
    assert a.occupants() == [(2, y, 6)]
    assert len(a) == 1 and a.occupied == [2]
    relaxed = Archive(4, 4, Direction.MAXIMIZE, strict=False)
    relaxed.consider(y.word, R(6, 2))
    assert relaxed.consider(x.word, R(6, 2))    # relaxed accepts ties
    assert relaxed.occupants() == [(2, x, 6)]
    assert len(relaxed) == 1 and relaxed.occupied == [2]


def test_archive_minimize_direction():
    a = Archive(3, 3, Direction.MINIMIZE)
    a.consider(W("100"), R(10))
    assert not a.consider(W("010"), R(11))
    assert a.consider(W("010"), R(9))
    assert a.occupants() == [(0, S("010"), 9)]


def test_archive_bounds():
    a = Archive(3, 3, Direction.MAXIMIZE)
    with pytest.raises(ParameterError):
        a.consider(W("100"), R(1, 3))
    with pytest.raises(ParameterError):
        Archive(0, 3, Direction.MAXIMIZE)


def test_map_elites_init_deterministic():
    problem = small_problem()
    a = run_map_elites(problem, RunConfig(budget=7, init_count=7, seed=3)).kept
    b = run_map_elites(problem, RunConfig(budget=7, init_count=7, seed=3)).kept
    assert a == b
    assert 1 <= len(a) <= 7
    # Every occupant sits in the cell its descriptor names.
    for cell, sol, fit in a.occupants():
        assert problem.probe(sol)[:2] == (fit, cell)


# ---------------------------------------------------------------------------
# Population and eviction


def test_population_worst_by_direction():
    pop = filled(Population(3, Direction.MAXIMIZE, RandomSource(0)), ["100", "010", "001"], [3, 1, 2])
    assert pop.worst() == (1, [1])
    pop2 = filled(Population(3, Direction.MINIMIZE, RandomSource(0)), ["100", "010", "001"], [3, 1, 2])
    assert pop2.worst() == (3, [0])


def test_population_eviction_requires_strict_improvement():
    pop = filled(Population(2, Direction.MAXIMIZE, RandomSource(0)), ["10", "01"], [4, 7])
    assert pop.replace_worst_if_better(W("11"), R(4)) is None
    assert pop.replace_worst_if_better(W("11"), R(5)) == 0
    assert pop.fitnesses == [5, 7]
    # Relaxed mode accepts ties.
    relaxed = filled(Population(2, Direction.MAXIMIZE, RandomSource(0), strict=False), ["11", "01"], [5, 7])
    assert relaxed.replace_worst_if_better(W("00"), R(5)) == 0


def test_tied_worst_evicted_uniformly():
    evicted_first = 0
    trials = 10_000
    for seed in range(trials):
        pop = filled(Population(2, Direction.MAXIMIZE, RandomSource(seed)), ["10", "01", "11"], [0, 0, 5])
        victim = pop.replace_worst_if_better(W("00"), R(3))
        assert victim in (0, 1)
        evicted_first += victim == 0
    sigma = math.sqrt(trials * 0.25)
    assert abs(evicted_first - trials / 2) <= 3 * sigma


def test_worst_cache_tracks_replacements():
    # RandomSource(1) breaks the first tie towards index 0.
    pop = filled(Population(2, Direction.MAXIMIZE, RandomSource(1)), ["10", "01", "11"], [2, 2, 9])
    assert pop.worst() == (2, [0, 1])
    assert pop.replace_worst_if_better(W("00"), R(9)) == 0
    assert pop.worst() == (2, [1])


def test_container_equality():
    first, second = Archive(3, 3, Direction.MAXIMIZE), Archive(3, 3, Direction.MAXIMIZE)
    for archive, cells in ((first, (0, 2)), (second, (2, 0))):
        for cell in cells:
            archive.consider(cell + 1, R(cell, cell))
    assert first == second and first.occupied != second.occupied  # fill order is not compared
    assert Archive(3, 3, Direction.MAXIMIZE) != Archive(3, 4, Direction.MAXIMIZE)
    rng = RandomSource(0)
    assert Population(3, Direction.MAXIMIZE, rng) != Population(4, Direction.MAXIMIZE, rng)
    # The same words and results in both kinds of container.
    archive = Archive(1, 3, Direction.MAXIMIZE)
    archive.consider(W("100"), R(5))
    population = filled(Population(3, Direction.MAXIMIZE, RandomSource(0)), ["100"], [5])
    assert (archive.words, archive.results) == (population.words, population.results)
    assert archive != population and population != archive
    with pytest.raises(TypeError):
        hash(archive)


def test_mu_plus_one_keeps_size_and_never_worsens():
    problem = small_problem(9)
    worst_values = []
    for pop in prefix_states(run_ea, problem, 5, 21, 300):
        assert len(pop) == 5
        worst_values.append(pop.worst()[0])
    better = comparison(problem.direction)
    for before, after in zip(worst_values, worst_values[1:]):
        assert not better(before, after)


def test_population_cell_counts_follow_every_eviction(monkeypatch):
    # Random-start EA runs evict often, ties included with strict=False;
    # after every eviction the count per cell equals a count over the members.
    replace = Population.replace_worst_if_better
    evictions = 0

    def checked(population, word, result):
        nonlocal evictions
        victim = replace(population, word, result)
        if victim is not None:
            evictions += 1
            assert population.cell_counts == Counter(r[1] for r in population.results)
        return victim

    monkeypatch.setattr(Population, "replace_worst_if_better", checked)
    draws = RandomSource(77)
    for seed in range(40):
        make = random_set_cover if seed % 2 else random_max_coverage
        problem = make_problem(make(8, 10, 0.3, 3 + 3 * (seed % 2), RandomSource(seed)))
        init_count = draws.randint(1, problem.num_cells + 2)
        config = RunConfig(budget=600, init_count=init_count, seed=seed, strict=seed % 4 < 2)
        trace = run_ea(problem, config)
        population = trace.kept
        assert population.cell_counts == Counter(r[1] for r in population.results)
        assert len(population.cell_counts) == len({r[1] for r in population.results}) == trace.milestones[-1].occupied
    assert evictions >= 1_000, evictions


def test_milestone_occupancy_does_not_scan_the_population(best_times):
    # An init-only run over 2^17 members logs about 1,000 milestone rows, and
    # takes about as long as the same run logging one (a ratio near 1); a
    # scan of every member's cell per row reads over 10.
    problem = make_problem(example2_set_cover(Example2Params(12)))
    mu = 2**17
    rows = RunConfig(budget=mu, init_count=mu, seed=1)
    one_row = dataclasses.replace(rows, milestone_every=mu)
    rows_s, one_row_s = best_times(lambda: run_ea(problem, rows), lambda: run_ea(problem, one_row))
    assert rows_s < 3 * one_row_s, (rows_s, one_row_s)
    trace = run_ea(problem, rows)
    assert len(trace.milestones) > 990
    assert trace.milestones[-1].occupied == len({r[1] for r in trace.kept.results})


def test_seed_population_validation():
    problem = small_problem()
    with pytest.raises(ParameterError):
        RunConfig(budget=2, init_count=1, seed=0, initial_population=())
    with pytest.raises(ParameterError, match="seed member has 4 variables"):
        run_ea(problem, RunConfig(budget=2, init_count=1, seed=0, initial_population=(S("1010"),)))
    members = (S("000000"), S("100000"))
    pop = run_ea(problem, RunConfig(budget=2, init_count=2, seed=0, initial_population=members)).kept
    assert pop.solutions == list(members)
    assert pop.fitnesses == [problem.probe(x)[0] for x in members]


# ---------------------------------------------------------------------------
# Quality targets


def test_quality_target_semantics():
    t = QualityTarget(threshold=10)
    assert t.met_under(Direction.MAXIMIZE)(10, 0, True)
    assert not t.met_under(Direction.MAXIMIZE)(9, 0, True)
    assert not t.met_under(Direction.MAXIMIZE)(12, 0, False)
    assert QualityTarget(10, require_feasible=False).met_under(Direction.MAXIMIZE)(12, 0, False)
    assert not QualityTarget(10, strict=True).met_under(Direction.MAXIMIZE)(10, 0, True)
    assert QualityTarget(10, required_cell=3).met_under(Direction.MAXIMIZE)(11, 3, True)
    assert not QualityTarget(10, required_cell=3).met_under(Direction.MAXIMIZE)(11, 2, True)
    assert QualityTarget(10).met_under(Direction.MINIMIZE)(9, 0, True)
    for threshold in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="threshold must be finite"):
            QualityTarget(threshold)
    assert QualityTarget(10**400).threshold == 10**400  # an int is always finite


def test_a_target_cell_outside_the_grid_is_refused_before_any_probe():
    base = small_problem()
    calls = []

    def probe_word(word):
        calls.append(word)
        return base.probe_word(word)

    problem = dataclasses.replace(base, probe_word=probe_word)
    for engine in (run_map_elites, run_ea):
        for cell in (-1, problem.num_cells, 999):
            target = QualityTarget(threshold=99999, required_cell=cell)
            with pytest.raises(ParameterError, match=f"target cell {cell} outside 0..{problem.num_cells - 1}"):
                engine(problem, RunConfig(budget=50, init_count=7, seed=0, target=target))
    assert calls == []
    target = QualityTarget(threshold=99999, required_cell=problem.num_cells - 1)
    assert run_ea(problem, RunConfig(budget=50, init_count=7, seed=0, target=target)).first_hit is None


# ---------------------------------------------------------------------------
# Full runs: accounting, determinism, invariants


def test_run_config_validation():
    with pytest.raises(ParameterError):
        RunConfig(budget=5, init_count=6, seed=0)
    with pytest.raises(ParameterError):
        RunConfig(budget=5, init_count=0, seed=0)
    with pytest.raises(ParameterError):
        RunConfig(budget=5, init_count=2, seed=0, initial_population=(S("1"),))
    with pytest.raises(ParameterError):
        RunConfig(budget=5, init_count=2, seed=0, milestone_every=0)
    with pytest.raises(ParameterError):
        RunConfig(budget=5, init_count=2, seed=0, target=5)
    with pytest.raises(ParameterError):
        RunConfig(budget=5, init_count=4, seed=0, initial_population=("0101",) * 4)
    with pytest.raises(ParameterError):
        RunConfig(budget=5, init_count=2, seed=0, initial_population=(S("01"), 1))
    assert RunConfig(budget=2000, init_count=5, seed=0).milestone_interval == 2
    assert RunConfig(budget=100, init_count=5, seed=0).milestone_interval == 1


def test_budget_is_spent_exactly():
    problem = small_problem()
    for budget in (7, 50, 383):
        trace = run_map_elites(problem, RunConfig(budget=budget, init_count=7, seed=1))
        assert trace.evaluations_used == budget
        trace = run_ea(problem, RunConfig(budget=budget, init_count=7, seed=1))
        assert trace.evaluations_used == budget


def test_same_seed_reproduces_trace_exactly():
    problem = small_problem(2)
    cfg = RunConfig(budget=500, init_count=7, seed=77)
    assert run_map_elites(problem, cfg) == run_map_elites(problem, cfg)
    assert run_ea(problem, cfg) == run_ea(problem, cfg)
    assert run_map_elites(problem, cfg) != run_map_elites(
        problem, RunConfig(budget=500, init_count=7, seed=78)
    )
    # A trace of either engine survives pickling (say, to come back from a
    # process pool) and deep-copying; the EA's copy keeps its stream's state.
    for run in (run_map_elites, run_ea):
        for round_trip in (lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy):
            trace = run(problem, cfg)
            copied = round_trip(trace)
            assert copied == trace
            if run is run_ea:
                assert copied.kept.rng is not trace.kept.rng
                assert copied.kept.rng.getrandbits(64) == trace.kept.rng.getrandbits(64)


def test_first_hit_is_exact_even_during_init():
    problem = small_problem()
    # A target any solution meets: first evaluation hits it, init still completes.
    trace = run_map_elites(
        problem,
        RunConfig(
            budget=100,
            init_count=7,
            seed=5,
            target=QualityTarget(threshold=-10, require_feasible=False),
        ),
    )
    assert trace.first_hit == 1
    assert trace.evaluations_used == 7  # init always completes, then the run stops
    # With stopping disabled the full budget is spent but first_hit is unchanged.
    trace2 = run_map_elites(
        problem,
        RunConfig(
            budget=100,
            init_count=7,
            seed=5,
            target=QualityTarget(threshold=-10, require_feasible=False),
            stop_on_target=False,
        ),
    )
    assert trace2.first_hit == 1
    assert trace2.evaluations_used == 100


def test_milestones_are_ordered_and_monotone():
    problem = small_problem(4)
    trace = run_map_elites(problem, RunConfig(budget=400, init_count=7, seed=12))
    evals = [m.evaluations for m in trace.milestones]
    assert evals == sorted(evals)
    assert trace.milestones[-1].evaluations == trace.evaluations_used
    best_values = [m.best_fitness for m in trace.milestones if m.best_fitness is not None]
    better = comparison(problem.direction)
    for before, after in zip(best_values, best_values[1:]):
        assert not better(before, after)
    occupancies = [m.occupied for m in trace.milestones]
    for before, after in zip(occupancies, occupancies[1:]):
        assert after >= before
    assert trace.best_fitness == trace.milestones[-1].best_fitness


def test_map_elites_rejects_seeded_population():
    problem = small_problem()
    with pytest.raises(ParameterError):
        run_map_elites(
            problem,
            RunConfig(
                budget=10,
                init_count=1,
                seed=0,
                initial_population=(Solution(6, 0),),
            ),
        )


def test_seeded_ea_run_matches_seed_population():
    params = Example2Params(8)
    problem = make_problem(example2_set_cover(params))
    local = example2_local_optimum(params)
    cfg = RunConfig(
        budget=3000,
        init_count=9,
        seed=31,
        initial_population=(local,) * 9,
        target=QualityTarget(
            threshold=problem.probe(local)[0], strict=True, require_feasible=False
        ),
    )
    trace = run_ea(problem, cfg)
    assert trace.evaluations_used == 3000
    assert trace.first_hit is None
    assert trace.kept.solutions == [local] * 9  # nothing ever improved
    assert trace.best_fitness == problem.probe(local)[0]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_archive_fitness_only_improves(seed, use_cover):
    if use_cover:
        problem = make_problem(random_set_cover(6, 7, 0.4, 5, RandomSource(seed + 1)))
    else:
        problem = make_problem(random_max_coverage(6, 7, 0.4, 3, RandomSource(seed + 1)))
    better = comparison(problem.direction)
    snapshot = None
    for archive in prefix_states(run_map_elites, problem, 5, seed, 150):
        for cell in range(archive.num_cells):
            after = archive.fitnesses[cell]
            if snapshot is not None and snapshot[cell] is not None:
                assert after is not None
                assert not better(snapshot[cell], after)
            if after is not None:
                sol = archive.solutions[cell]
                assert problem.probe(sol)[1] == cell
        snapshot = archive.fitnesses


def test_run_on_reference_families_smoke():
    p1 = make_problem(example1_max_coverage(Example1Params(9, Fraction(1, 3))))
    trace = run_map_elites(p1, RunConfig(budget=4000, init_count=10, seed=3))
    assert trace.best_fitness is not None and trace.best_fitness > 0
    p2 = make_problem(example2_set_cover(Example2Params(6)))
    trace2 = run_ea(p2, RunConfig(budget=4000, init_count=6, seed=3))
    assert trace2.best_fitness is not None


# ---------------------------------------------------------------------------
# Copy offspring reuse their parent's probe result


def record_uniform_draws(monkeypatch):
    """Make each run draw from a ``random.Random`` that appends every
    ``random()`` it returns to the list returned here.  The subclass
    overrides ``getrandbits`` too, unchanged: one that overrode only
    ``random`` would make ``randrange`` (the EA's tie-break) draw from
    ``random()`` instead of ``getrandbits``, a different stream."""
    draws = []

    class Recording(random.Random):
        def random(self):
            u = super().random()
            draws.append(u)
            return u

        def getrandbits(self, k):
            return super().getrandbits(k)

    monkeypatch.setattr(algorithms, "RandomSource", Recording)
    return draws


def copies_among(draws, n):
    """How many of a run's ``random()`` draws gave no flip: each step draws
    one, its flip count's uniform, and a copy is one below P(no flip)."""
    no_flip = exact_flip_count_cdf(n)[0]
    return sum(u < no_flip for u in draws)


@pytest.mark.parametrize("engine", [run_map_elites, run_ea])
@pytest.mark.parametrize("use_cover", [False, True])
def test_only_copies_skip_the_probe(engine, use_cover, monkeypatch):
    if use_cover:
        base = make_problem(random_set_cover(10, 12, 0.3, 5, RandomSource(2)))
    else:
        base = make_problem(random_max_coverage(10, 12, 0.3, 4, RandomSource(2)))
    probes = 0

    def probe_word(word):
        nonlocal probes
        probes += 1
        return base.probe_word(word)

    draws = record_uniform_draws(monkeypatch)
    problem = dataclasses.replace(base, probe_word=probe_word)
    trace = engine(problem, RunConfig(budget=3000, init_count=problem.num_cells, seed=8))
    copies = copies_among(draws, problem.n)
    monkeypatch.undo()
    assert trace.evaluations_used == 3000
    assert copies > 0
    assert probes == trace.evaluations_used - copies
    assert trace == engine(base, RunConfig(budget=3000, init_count=base.num_cells, seed=8))


def flat_problem(n, probed):
    """Every word of ``n`` variables scores 0, feasible, in cell 0; each word
    probed is appended to ``probed``.  Under the strict keep rule no
    offspring is ever kept, so a mu = 1 EA mutates its first member
    throughout."""

    def probe_word(word):
        probed.append(word)
        return 0, 0, True

    return Problem("flat", n, 1, Direction.MAXIMIZE, probe_word)


@pytest.mark.parametrize("n", [1, 2, 12, 13, 30, 60, 65])
def test_the_loop_draws_the_plain_flip_stream(n):
    # The run loop draws each flip word itself, with fast paths for 0 and 1
    # flips; on a flat problem each step draws the parent index (always 0),
    # then what the plain spelling of the mutation law draws.
    probed = []
    seed = 500 + n
    trace = run_ea(flat_problem(n, probed), RunConfig(budget=3000, init_count=1, seed=seed))
    replay = RandomSource(seed)
    w0 = replay.getrandbits(n)
    flip = plain_flip_draw(n, replay)
    masks = []
    for _ in range(trace.evaluations_used - 1):
        assert replay.randrange(1) == 0
        masks.append(flip())
    assert trace.kept.words == [w0]
    assert probed == [w0] + [w0 ^ mask for mask in masks if mask]
    assert masks.count(0) == trace.evaluations_used - 1 - (len(probed) - 1)
    assert trace.kept.rng.getstate() == replay.getstate()


class ScriptedRandom:
    """``random()`` always returns ``u``; ``getrandbits(k)`` counts 0, 1, 2,
    ... modulo 2^k, so a flip word's positions come up in turn and, whatever
    was drawn before, every position comes up within 2^k draws."""

    def __init__(self, u):
        self.u = u
        self.drawn = 0

    def random(self):
        return self.u

    def getrandbits(self, k):
        self.drawn += 1
        return (self.drawn - 1) % (1 << k)


def loop_flip_word(n, u, monkeypatch):
    """The flip word of one run-loop step on a stream whose ``random()`` is
    ``u``: the child of the all-zero word."""
    config = RunConfig(budget=2, init_count=1, seed=0, initial_population=(Solution(n, 0),))
    monkeypatch.setattr(algorithms, "RandomSource", lambda seed: ScriptedRandom(u))
    probed = []
    assert run_ea(flat_problem(n, probed), config).evaluations_used == 2
    return probed[1] if len(probed) == 2 else 0


@pytest.mark.parametrize("n", [1, 2, 3, 8, 30, 60], ids=lambda n: f"loop-{n}")
def test_flip_count_at_the_cdf_boundaries(n, monkeypatch):
    # One step of the run loop on a scripted stream: u == cdf[j] counts
    # j + 1 flips, as bisect_right does; just below cdf[j] counts j.
    cdf = exact_flip_count_cdf(n)
    draws = cdf[:3] + [math.nextafter(c, 0) for c in cdf]
    for u in [u for u in draws if u < 1.0]:
        word = loop_flip_word(n, u, monkeypatch)
        assert word.bit_count() == bisect_right(cdf, u), u


def test_kept_members_carry_their_probe_results():
    problem = small_problem(9)
    config = RunConfig(budget=306, init_count=6, seed=4, strict=False)
    archive = run_map_elites(problem, config).kept
    population = run_ea(problem, config).kept
    for cell in archive.occupied:
        assert archive.results[cell] == problem.probe(archive.solutions[cell])
    assert population.results == [problem.probe(x) for x in population.solutions]


def _cubed(problem):
    """``problem`` with every fitness cubed: x ↦ x³ is strictly increasing on
    the ints, −1 included, so it keeps the order of any two fitness values."""
    probe_word = problem.probe_word

    def cubed(word):
        fitness, cell, feasible = probe_word(word)
        return fitness**3, cell, feasible

    return dataclasses.replace(problem, probe_word=cubed)


@pytest.mark.parametrize("engine", [run_map_elites, run_ea])
@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("use_cover", [False, True])
def test_keep_rules_only_compare_fitness_values(engine, strict, use_cover):
    # A run on g∘f for a strictly increasing g makes every choice a run on f
    # makes: the same hits, milestones and kept words, only the fitness cubed.
    if use_cover:
        problem = make_problem(random_set_cover(7, 9, 0.35, 6, RandomSource(22)))
    else:
        problem = make_problem(random_max_coverage(8, 10, 0.3, 3, RandomSource(21)))
    threshold = brute_force_opt(problem).fitness
    for seed in (3, 4):
        runs = []
        for subject, cube in ((problem, 1), (_cubed(problem), 3)):
            config = RunConfig(
                budget=1500,
                init_count=problem.num_cells,
                seed=seed,
                target=QualityTarget(threshold=threshold**cube),
                strict=strict,
                stop_on_target=False,
                milestone_every=100,
            )
            runs.append(engine(subject, config))
        plain, cubed = runs
        assert cubed.first_hit == plain.first_hit
        assert cubed.best_fitness == plain.best_fitness**3
        assert [(m.evaluations, m.occupied, m.best_solution) for m in cubed.milestones] == [
            (m.evaluations, m.occupied, m.best_solution) for m in plain.milestones
        ]
        kept = [run.kept for run in runs]
        assert kept[1].words == kept[0].words
        assert kept[1].fitnesses == [None if f is None else f**3 for f in kept[0].fitnesses]


def test_solutions_are_built_only_at_the_boundaries(monkeypatch):
    # Inside a run and the exhaustive oracle a solution is its word: a
    # Solution is built for milestone strings and for what leaves them.
    params = Example1Params(30, Fraction(1, 10))
    problem = make_problem(example1_max_coverage(params))
    members = (example1_local_optimum(params),) * problem.num_cells
    small = make_problem(random_max_coverage(12, 16, 0.3, 4, RandomSource(3)))
    built = 0
    original = Solution.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        original(self)

    monkeypatch.setattr(Solution, "__post_init__", counted)
    trace = run_ea(
        problem,
        RunConfig(budget=5000, init_count=problem.num_cells, seed=3, initial_population=members),
    )
    assert trace.evaluations_used == 5000
    assert built <= len(trace.milestones) + 2
    built = 0
    brute_force_opt(small)
    assert built <= 2


# ---------------------------------------------------------------------------
# The run loop against a reference that notes every evaluation


def plain_beats(maximize, strict):
    """The operator for "``a`` beats ``b``", spelled out here rather than
    read from ``problems``."""
    if maximize:
        return operator.gt if strict else operator.ge
    return operator.lt if strict else operator.le


def reference_run(engine, problem, config):
    """The run loop written plainly: every offspring is probed (copies too)
    and every evaluation is noted, with no event filter.  Parents are drawn
    with ``rng.randrange`` and flip words with the test's plain spelling of
    the mutation law, not the loop's inline draw.  The members are kept in plain
    lists with their own keep rules, not the library's containers: a word
    and result per cell with a fill-order list for the archive, and for the
    population a scan for the worst fitness on every offspring, with a
    ``rng.randrange`` draw only when several members tie for it.  Every
    comparison is a plain ``operator``.  A hit stops the run only once init
    is complete.  Returns ``(evaluations, first_hit, best_fitness,
    best_string, milestones, words, results, filled)``; ``filled`` is the
    archive's fill order, None for the population.
    """
    n, target = problem.n, config.target
    maximize = problem.direction is Direction.MAXIMIZE
    beats = plain_beats(maximize, config.strict)
    improves = plain_beats(maximize, True)
    rng = RandomSource(config.seed)
    if config.initial_population is not None:
        init_words = [x.word for x in config.initial_population]
    else:
        init_words = [rng.getrandbits(n) for _ in range(config.init_count)]
    flip = plain_flip_draw(n, rng)
    if engine == "map-elites":
        words, results, filled = [None] * problem.num_cells, [None] * problem.num_cells, []
        slots = filled

        def keep(word, result):
            fitness, cell, _feasible = result
            if results[cell] is None:
                filled.append(cell)
            elif not beats(fitness, results[cell][0]):
                return
            words[cell], results[cell] = word, result

        admit = keep

        def occupancy():
            return len(filled)

    else:
        words, results, filled = [], [], None
        slots = range(config.init_count)

        def admit(word, result):
            words.append(word)
            results.append(result)

        def keep(word, result):
            fitnesses = [member[0] for member in results]
            worst = min(fitnesses) if maximize else max(fitnesses)
            if not beats(result[0], worst):
                return
            ties = [i for i, fitness in enumerate(fitnesses) if fitness == worst]
            victim = ties[rng.randrange(len(ties))] if len(ties) > 1 else ties[0]
            words[victim], results[victim] = word, result

        def occupancy():
            return len({result[1] for result in results})

    def hit(fitness, cell, feasible):
        return (
            target is not None
            and (feasible or not target.require_feasible)
            and target.required_cell in (None, cell)
            and plain_beats(maximize, target.strict)(fitness, target.threshold)
        )

    evals = 0
    first_hit = best = best_string = None
    milestones = []

    def note(word, result):
        nonlocal best, best_string, first_hit
        fitness, cell, feasible = result
        improved = feasible and (best is None or improves(fitness, best))
        if improved:
            best, best_string = fitness, Solution(n, word).to_string()
        if first_hit is None and hit(fitness, cell, feasible):
            first_hit = evals
        if improved or evals % config.milestone_interval == 0:
            milestones.append((evals, best, occupancy(), best_string))

    for word in init_words:
        result = problem.probe_word(word)
        admit(word, result)
        evals += 1
        note(word, result)
    while evals < config.budget and not (config.stop_on_target and first_hit is not None):
        index = slots[rng.randrange(len(slots))]
        word = words[index] ^ flip()
        result = problem.probe_word(word)
        keep(word, result)
        evals += 1
        note(word, result)
    if not milestones or milestones[-1][0] != evals:
        milestones.append((evals, best, occupancy(), best_string))
    return evals, first_hit, best, best_string, milestones, words, results, filled


def _fitness_values(problem):
    return sorted({problem.probe_word(word)[0] for word in range(1 << problem.n)})


def _reference_problems():
    bipartite = Example1Params(9, Fraction(1, 3))
    umbrella = Example2Params(8)
    wide = Example2Params(13)
    cases = [
        (make_problem(example1_max_coverage(bipartite)), example1_local_optimum(bipartite)),
        (make_problem(example2_set_cover(umbrella)), example2_local_optimum(umbrella)),
        (make_problem(random_max_coverage(8, 10, 0.3, 3, RandomSource(21))), None),
        (make_problem(random_set_cover(7, 9, 0.35, 6, RandomSource(22))), None),
        # Above the result-table limit: the engines call the chunk probe.
        (make_problem(example2_set_cover(wide)), example2_local_optimum(wide)),
    ]
    return [(problem, trap, _fitness_values(problem)) for problem, trap in cases]


REFERENCE_PROBLEMS = _reference_problems()


@st.composite
def reference_cases(draw):
    """``(index, engine, config)``: a problem of ``REFERENCE_PROBLEMS`` by
    index, an engine and a run config for them."""
    index = draw(st.integers(0, len(REFERENCE_PROBLEMS) - 1))
    problem, trap, values = REFERENCE_PROBLEMS[index]
    engine = draw(st.sampled_from(["map-elites", "ea"]))
    init_count = draw(st.integers(1, problem.num_cells + 2))
    seeded = engine == "ea" and trap is not None and draw(st.booleans())
    target = None
    if draw(st.booleans()):
        target = QualityTarget(
            threshold=draw(st.sampled_from(values)),
            strict=draw(st.booleans()),
            require_feasible=draw(st.booleans()),
            required_cell=draw(st.none() | st.integers(0, problem.num_cells - 1)),
        )
    config = RunConfig(
        budget=draw(st.integers(init_count, 2_000)),
        init_count=init_count,
        seed=draw(st.integers(0, 2**32 - 1)),
        target=target,
        strict=draw(st.booleans()),
        stop_on_target=draw(st.booleans()),
        initial_population=(trap,) * init_count if seeded else None,
        milestone_every=draw(st.none() | st.integers(1, 500)),
    )
    return index, engine, config


@settings(max_examples=150, deadline=None)
@given(reference_cases())
# The gate's edges.  A relaxed EA seeded at the bipartite trap keeps the
# offspring that tie its floor, so its gate must admit ties.
@example((0, "ea", RunConfig(budget=2000, init_count=3, seed=0, strict=False, initial_population=(REFERENCE_PROBLEMS[0][1],) * 3)))
# The random set cover's archive holds every cell after 43 evaluations and
# then accepts six offspring, each of which resets its floor.
@example((3, "map-elites", RunConfig(budget=2000, init_count=10, seed=1)))
# A minimizing EA whose non-strict threshold is the weakest of the three:
# its first hit ties the gate, so the gate must admit ties while watching.
@example(
    (1, "ea", RunConfig(
        budget=2000, init_count=4, seed=0,
        target=QualityTarget(4103, required_cell=5, require_feasible=False),
    ))
)
# The cell bars' edges.  The bipartite archive holds -1 in its over-size
# cells (5-9) and 0-20 in the others, so a bar read from another cell than
# the offspring's turns away offspring that fill or improve their own.
@example((0, "map-elites", RunConfig(budget=2000, init_count=1, seed=0)))
# A relaxed archive keeps offspring that tie their cell's incumbent, so its
# bars must admit ties.
@example((2, "map-elites", RunConfig(budget=2000, init_count=1, seed=0, strict=False)))
# A minimizing archive watching a non-strict target bound to its one
# feasible cell: evaluation 13 ties the threshold, and the run goes on.
@example(
    (3, "map-elites", RunConfig(
        budget=2000, init_count=4, seed=0, target=QualityTarget(9, required_cell=9), stop_on_target=False,
    ))
)
def test_run_matches_the_reference_loop(case):
    index, engine, config = case
    problem = REFERENCE_PROBLEMS[index][0]
    run = run_map_elites if engine == "map-elites" else run_ea
    trace = run(problem, config)
    evals, first_hit, best, best_string, milestones, words, results, filled = reference_run(
        engine, problem, config
    )
    assert (trace.evaluations_used, trace.first_hit) == (evals, first_hit)
    assert trace.best_fitness == best
    assert (None if trace.best_solution is None else trace.best_solution.to_string()) == best_string
    assert [(m.evaluations, m.best_fitness, m.occupied, m.best_solution) for m in trace.milestones] == milestones
    assert (trace.kept.words, trace.kept.results) == (words, results)
    if engine == "map-elites":
        assert trace.kept.occupied == filled


# ---------------------------------------------------------------------------
# The fitness gate: which offspring still reach the keep step


def counted_keeps(monkeypatch, archive=False):
    """Patch the population's keep policy to log, per call, whether it kept
    the offspring; with ``archive``, patch the archive's to log the
    offspring's result and the result its cell held before the call."""
    if not archive:
        keep = Population.replace_worst_if_better
        outcomes = []

        def logged(self, word, result):
            victim = keep(self, word, result)
            outcomes.append(victim is not None)
            return victim

        monkeypatch.setattr(Population, "replace_worst_if_better", logged)
        return outcomes
    consider = Archive.consider
    calls = []

    def considered(self, word, result):
        calls.append((result, self.results[result[1]]))
        return consider(self, word, result)

    monkeypatch.setattr(Archive, "consider", considered)
    return calls


@pytest.mark.parametrize("strict", [True, False])
def test_a_seeded_umbrella_trap_hands_keep_only_its_milestones(strict, monkeypatch):
    # Every offspring of the umbrella cover is worse or a tie.  Under the
    # strict keep rule and a strict target the gate turns them all away,
    # including the ones that end a milestone interval, whose rows the loop
    # logs itself; a relaxed rule keeps ties, so they all reach keep.
    params = Example2Params(12)
    problem = make_problem(example2_set_cover(params))
    trap = example2_local_optimum(params)
    outcomes = counted_keeps(monkeypatch)
    config = RunConfig(
        budget=20_000, init_count=4, seed=11, strict=strict, milestone_every=5_000,
        initial_population=(trap,) * 4, target=QualityTarget(2**12, strict=True, require_feasible=False),
    )
    trace = run_ea(problem, config)
    assert trace.first_hit is None and trace.best_fitness == 2**12
    if strict:
        assert outcomes == []
    else:
        assert outcomes.count(True) > 5_000 and outcomes.count(False) <= 4


@pytest.mark.parametrize(
    ("use_cover", "strict"),
    [(False, True), (True, True), (False, False), (True, False)],
    ids=["False", "True", "False-relaxed", "True-relaxed"],
)
def test_without_a_target_the_ea_hands_keep_only_what_it_keeps(use_cover, strict, monkeypatch):
    # On both families every infeasible fitness is worse than every
    # feasible one, so the population's floor is never stronger than the
    # best feasible fitness: without a target the gate is the floor, and an
    # offspring that passes it is kept, by either keep rule.  Once a member
    # is feasible, only the offspring that end the five milestone intervals
    # can reach keep and be turned away there.  A gate left stale after an
    # accept lets more through; under the relaxed rule only an accept that
    # ties the floor may leave the gate as it was.
    make = random_set_cover if use_cover else random_max_coverage
    problem = make_problem(make(10, 12, 0.3, 6 if use_cover else 4, RandomSource(2)))
    outcomes = counted_keeps(monkeypatch)
    config = RunConfig(budget=5_000, init_count=problem.num_cells, seed=8, strict=strict, milestone_every=1_000)
    trace = run_ea(problem, config)
    assert trace.milestones[0].best_fitness is not None  # a feasible init member
    assert outcomes.count(False) <= 5
    assert outcomes.count(True) > 20


@pytest.mark.parametrize(
    ("index", "strict", "target"),
    [
        (0, True, None),  # the over-size cells hold -1
        (2, False, None),  # a relaxed rule keeps cell ties
        (3, True, QualityTarget(12, strict=True)),
        (1, False, QualityTarget(258, required_cell=2)),
        (0, True, QualityTarget(20)),  # hit at evaluation 379: ties pass only before it
    ],
    ids=["bipartite", "relaxed", "strict-target", "cell-target", "loose-target"],
)
def test_an_archive_hands_consider_only_what_can_change_it(index, strict, target, monkeypatch):
    # Once a feasible solution is seen, an offspring can change the archive
    # only by landing in an empty cell or beating its own cell's incumbent,
    # and the trace only by beating the best or, while no hit is recorded,
    # reaching the threshold.  The loop turns every other one away before
    # consider, comparing strictly unless the keep rule or the watched
    # target admits ties.
    problem = REFERENCE_PROBLEMS[index][0]
    maximize = problem.direction is Direction.MAXIMIZE
    calls = counted_keeps(monkeypatch, archive=True)
    config = RunConfig(budget=5_000, init_count=4, seed=3, strict=strict, target=target, stop_on_target=False)
    trace = run_map_elites(problem, config)
    improves = plain_beats(maximize, True)
    best = hit = None
    for number, (result, incumbent) in enumerate(calls):
        fitness, cell, feasible = result
        watching = target is not None and hit is None
        passes = plain_beats(maximize, strict and (not watching or target.strict))
        if number >= config.init_count and best is not None:
            assert (
                incumbent is None
                or passes(fitness, incumbent[0])
                or passes(fitness, best)
                or (watching and passes(fitness, target.threshold))
            ), (number, result, incumbent, best)
        if feasible and (best is None or improves(fitness, best)):
            best = fitness
        if watching and target.met_under(problem.direction)(fitness, cell, feasible):
            hit = number
    assert best == trace.best_fitness
    assert (hit is None) == (trace.first_hit is None)


def test_an_accept_that_ties_its_bar_rebuilds_no_bars(monkeypatch):
    # Once its cells are filled, a relaxed archive keeps mostly offspring
    # that tie their cell's incumbent.  Such an accept moves no bar, so the
    # loop must not rebuild the bars for it.  Without a target each rebuild
    # calls the archive's weakest once per held cell, and a rebuild is due
    # only after init and after an accept that fills a cell or changes its
    # fitness.
    counts = Counter()

    class CountedArchive(Archive):
        def __init__(self, *args):
            super().__init__(*args)
            weakest = self.weakest

            def counted(*values):
                counts["weakest"] += 1
                return weakest(*values)

            self.weakest = counted

        def consider(self, word, result):
            held = self.results[result[1]]
            kept = super().consider(word, result)
            if kept:
                counts["tie" if held is not None and held[0] == result[0] else "change"] += 1
            return kept

    monkeypatch.setattr(algorithms, "Archive", CountedArchive)
    problem = make_problem(example1_max_coverage(Example1Params(9, Fraction(1, 3))))
    run_map_elites(problem, RunConfig(budget=2_000, init_count=problem.num_cells, seed=3, strict=False))
    assert counts["tie"] > 10 * counts["change"]
    assert counts["weakest"] <= problem.num_cells * (1 + counts["change"])


def test_a_malformed_cell_still_raises_where_the_archive_sees_it():
    # The archive checks the cell of each result it is handed.  A gated
    # offspring is not handed to it, but every init member is, and so is
    # every offspring whose cell has no bar.  Here the word of all ones
    # names a cell past the grid, or -1, which a list indexed by the cell
    # would read from its end.  Either has no bar, so the run raises when
    # that word is first drawn, at init or later.
    base = small_problem()
    n = base.n
    for bad in (n + 1, -1):

        def malformed_cell(word, bad=bad):
            fitness, cell, feasible = base.probe_word(word)
            return fitness, bad if cell == n else cell, feasible

        problem = dataclasses.replace(base, probe_word=malformed_cell)
        for init_count in (1, 200):
            with pytest.raises(ParameterError, match=f"cell {bad} outside 0..{n}"):
                run_map_elites(problem, RunConfig(budget=20_000, init_count=init_count, seed=0))
    # The EA keeps no grid and checks no cell.
    assert run_ea(problem, RunConfig(budget=2_000, init_count=n + 1, seed=0)).evaluations_used == 2_000
