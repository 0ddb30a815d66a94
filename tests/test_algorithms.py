"""Engine behaviour tests: archive discipline, eviction rules, trace accounting."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from qdpb.problems import Direction, comparison, make_problem

from test_core import plain_flip_sampler

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


def prefix_states(engine, problem, init_count, seed, steps):
    """The container after init and after each of ``steps`` steps, one run per prefix.

    A run's draws do not depend on its budget, so the run with budget
    ``init_count + s`` ends in the state after step ``s`` of a longer run.
    """
    for budget in range(init_count, init_count + steps + 1):
        trace = engine(problem, RunConfig(budget=budget, init_count=init_count, seed=seed))
        yield trace.archive if trace.archive is not None else trace.population


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
    a = run_map_elites(problem, RunConfig(budget=7, init_count=7, seed=3)).archive
    b = run_map_elites(problem, RunConfig(budget=7, init_count=7, seed=3)).archive
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


def test_seed_population_validation():
    problem = small_problem()
    with pytest.raises(ParameterError):
        RunConfig(budget=2, init_count=1, seed=0, initial_population=())
    with pytest.raises(ParameterError, match="seed member has 4 variables"):
        run_ea(problem, RunConfig(budget=2, init_count=1, seed=0, initial_population=(S("1010"),)))
    members = (S("000000"), S("100000"))
    pop = run_ea(problem, RunConfig(budget=2, init_count=2, seed=0, initial_population=members)).population
    assert pop.solutions == list(members)
    assert pop.fitnesses == [problem.probe(x)[0] for x in members]


# ---------------------------------------------------------------------------
# Quality targets


def test_quality_target_semantics():
    t = QualityTarget(threshold=10)
    assert t.met(10, 0, True, Direction.MAXIMIZE)
    assert not t.met(9, 0, True, Direction.MAXIMIZE)
    assert not t.met(12, 0, False, Direction.MAXIMIZE)
    assert QualityTarget(10, require_feasible=False).met(12, 0, False, Direction.MAXIMIZE)
    assert not QualityTarget(10, strict=True).met(10, 0, True, Direction.MAXIMIZE)
    assert QualityTarget(10, required_cell=3).met(11, 3, True, Direction.MAXIMIZE)
    assert not QualityTarget(10, required_cell=3).met(11, 2, True, Direction.MAXIMIZE)
    assert QualityTarget(10).met(9, 0, True, Direction.MINIMIZE)
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
    assert trace.population.solutions == [local] * 9  # nothing ever improved
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


@pytest.mark.parametrize("engine", [run_map_elites, run_ea])
@pytest.mark.parametrize("use_cover", [False, True])
def test_only_copies_skip_the_probe(engine, use_cover, monkeypatch):
    if use_cover:
        base = make_problem(random_set_cover(10, 12, 0.3, 5, RandomSource(2)))
    else:
        base = make_problem(random_max_coverage(10, 12, 0.3, 4, RandomSource(2)))
    probes = copies = 0

    def probe_word(word):
        nonlocal probes
        probes += 1
        return base.probe_word(word)

    original_sampler = algorithms.flip_sampler

    def sampler(n, rng):
        flip = original_sampler(n, rng)

        def counted():
            nonlocal copies
            mask = flip()
            copies += mask == 0
            return mask

        return counted

    monkeypatch.setattr(algorithms, "flip_sampler", sampler)
    problem = dataclasses.replace(base, probe_word=probe_word)
    trace = engine(problem, RunConfig(budget=3000, init_count=problem.num_cells, seed=8))
    assert trace.evaluations_used == 3000
    assert copies > 0
    assert probes == trace.evaluations_used - copies
    assert trace == engine(base, RunConfig(budget=3000, init_count=base.num_cells, seed=8))


def test_kept_members_carry_their_probe_results():
    problem = small_problem(9)
    config = RunConfig(budget=306, init_count=6, seed=4, strict=False)
    archive = run_map_elites(problem, config).archive
    population = run_ea(problem, config).population
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
        kept = [run.archive if run.archive is not None else run.population for run in runs]
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


def reference_run(engine, problem, config):
    """The run loop written plainly: every offspring is probed (copies too)
    and every evaluation is noted, with no event filter.  Parents are drawn
    with ``rng.randrange`` and flip words with the test's plain spelling of
    the mutation law, not ``flip_sampler``.  A hit stops the run only once
    init is complete.  Returns ``(evaluations, first_hit,
    best_fitness, best_string, milestones, container)``.
    """
    n, direction, target = problem.n, problem.direction, config.target
    rng = RandomSource(config.seed)
    if config.initial_population is not None:
        init_words = [x.word for x in config.initial_population]
    else:
        init_words = [rng.getrandbits(n) for _ in range(config.init_count)]
    flip = plain_flip_sampler(n, rng)
    if engine == "map-elites":
        container = Archive(problem.num_cells, n, direction, config.strict)
        admit = keep = container.consider
        slots = container.occupied
        occupancy = container.__len__
    else:
        container = Population(n, direction, rng, config.strict)
        admit, keep = container.add, container.replace_worst_if_better
        slots = range(config.init_count)

        def occupancy():
            return len({result[1] for result in container.results})

    evals = 0
    first_hit = best = best_string = None
    milestones = []

    def note(word, result):
        nonlocal best, best_string, first_hit
        fitness, cell, feasible = result
        improved = feasible and (best is None or comparison(direction)(fitness, best))
        if improved:
            best, best_string = fitness, Solution(n, word).to_string()
        if target is not None and first_hit is None and target.met(fitness, cell, feasible, direction):
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
        word = container.words[index] ^ flip()
        result = problem.probe_word(word)
        keep(word, result)
        evals += 1
        note(word, result)
    if not milestones or milestones[-1][0] != evals:
        milestones.append((evals, best, occupancy(), best_string))
    return evals, first_hit, best, best_string, milestones, container


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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_matches_the_reference_loop(data):
    problem, trap, values = data.draw(st.sampled_from(REFERENCE_PROBLEMS), label="problem")
    engine = data.draw(st.sampled_from(["map-elites", "ea"]), label="engine")
    init_count = data.draw(st.integers(1, problem.num_cells + 2), label="init_count")
    seeded = engine == "ea" and trap is not None and data.draw(st.booleans(), label="seeded")
    target = None
    if data.draw(st.booleans(), label="has_target"):
        target = QualityTarget(
            threshold=data.draw(st.sampled_from(values), label="threshold"),
            strict=data.draw(st.booleans(), label="target_strict"),
            require_feasible=data.draw(st.booleans(), label="require_feasible"),
            required_cell=data.draw(
                st.none() | st.integers(0, problem.num_cells - 1), label="required_cell"
            ),
        )
    config = RunConfig(
        budget=data.draw(st.integers(init_count, 2_000), label="budget"),
        init_count=init_count,
        seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
        target=target,
        strict=data.draw(st.booleans(), label="strict"),
        stop_on_target=data.draw(st.booleans(), label="stop_on_target"),
        initial_population=(trap,) * init_count if seeded else None,
        milestone_every=data.draw(st.none() | st.integers(1, 500), label="milestone_every"),
    )
    run = run_map_elites if engine == "map-elites" else run_ea
    trace = run(problem, config)
    evals, first_hit, best, best_string, milestones, container = reference_run(engine, problem, config)
    assert (trace.evaluations_used, trace.first_hit) == (evals, first_hit)
    assert trace.best_fitness == best
    assert (None if trace.best_solution is None else trace.best_solution.to_string()) == best_string
    assert [(m.evaluations, m.best_fitness, m.occupied, m.best_solution) for m in trace.milestones] == milestones
    kept = trace.archive if engine == "map-elites" else trace.population
    assert kept == container
    if engine == "map-elites":
        assert kept.occupied == container.occupied
