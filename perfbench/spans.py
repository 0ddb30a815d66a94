"""Per-layer spans around qdpb's layer boundaries, installed from outside the package.

``Tracer.install`` replaces, in every loaded ``qdpb`` module, the functions
and methods that mark a layer boundary with timing wrappers, and restores
them on ``uninstall``.  Each wrapper records calls, total seconds and the
seconds spent in wrapped callees, so a layer's self time is total minus
children.  Inner helpers that run several times per evaluation
(``is_better``, ``sample_flip_mask``, ``apply_mask``) are left unwrapped:
a wrapper on them would measure mostly itself.

Nothing here draws from a random stream or changes an argument or a
result, so a traced run must produce the same reports as an untraced one.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import defaultdict

# (module, attribute) pairs wrapped as plain spans, named "<module>.<attribute>".
SPANS = (
    ("core", "bitwise_mutate"),
    ("algorithms", "run_ea"),
    ("algorithms", "run_map_elites"),
    ("algorithms", "Archive.consider"),
    ("algorithms", "Population.replace_worst_if_better"),
    ("analysis", "brute_force_opt"),
    ("analysis", "qd_metrics"),
    ("harness", "resolve_problem"),
    ("harness", "run_experiment"),
    ("harness", "export_report"),
    ("harness", "load_report"),
    ("instances", "example1_max_coverage"),
    ("instances", "example2_set_cover"),
    ("instances", "random_max_coverage"),
    ("instances", "random_set_cover"),
    ("instances", "identify_instance"),
)
ENGINES = ("algorithms.run_ea", "algorithms.run_map_elites", "analysis.brute_force_opt")
PROBLEM_FACTORIES = ("make_max_coverage_problem", "make_set_cover_problem")


class Tracer:
    """Span statistics plus the counters the per-layer ratios need."""

    def __init__(self, clock) -> None:
        self._clock = clock  # HostClock.now: excludes the host-speed samples
        # name -> [calls, total seconds, seconds in wrapped callees]; wrappers
        # hold these lists, so reset() clears them in place.
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        for stats in self.spans.values():
            stats[:] = [0, 0.0, 0.0]
        self._stack.clear()
        self.objects = 0  # Solution and FlipMask constructions, anywhere
        self.engine_depth = 0
        self.evaluations: dict[str, int] = defaultdict(int)  # per engine
        self.engine_objects = 0
        self.engine_probes = 0
        self.keeps = 0
        self.keeps_accepted = 0
        self.mutations = 0
        self.empty_masks = 0
        self.probed_words = 0
        self.distinct_words = 0

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        stats = self.spans[name]
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def _engine(self, name: str, fn, evaluations):
        inner = self._span(name, fn)

        def traced(*args, **kwargs):
            objects, probes = self.objects, self.spans["problems.probe"][0]
            self.engine_depth += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                self.engine_depth -= 1
            self.engine_objects += self.objects - objects
            self.engine_probes += self.spans["problems.probe"][0] - probes
            self.evaluations[name] += evaluations(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _keep_outcome(self, accepted_if):
        def after(_args, result):
            if self.engine_depth:
                self.keeps += 1
                self.keeps_accepted += accepted_if(result)

        return after

    def _mutation_outcome(self, args, child):
        self.mutations += 1
        self.empty_masks += child.word == args[0].word

    def _traced_problem(self, factory):
        replace = dataclasses.replace

        @functools.wraps(factory)
        def make(*args, **kwargs):
            problem = factory(*args, **kwargs)
            seen: set[int] = set()
            tracer = self

            def count_word(args, _result):
                tracer.probed_words += 1
                word = args[0].word
                if word not in seen:
                    seen.add(word)
                    tracer.distinct_words += 1

            return replace(problem, probe=self._span("problems.probe", problem.probe, count_word))

        return make

    def _counted_init(self, original):
        def post_init(obj):
            self.objects += 1
            original(obj)

        return post_init

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer boundaries of the currently loaded ``qdpb`` modules."""
        mods = {name: sys.modules[f"qdpb.{name}"] for name in
                ("core", "problems", "algorithms", "analysis", "harness", "instances")}
        replacements = {}
        for module, attribute in SPANS:
            owner_name, _, method = attribute.rpartition(".")
            name = f"{module}.{attribute}"
            if owner_name:  # a keep step: Archive.consider or Population.replace_worst_if_better
                owner = getattr(mods[module], owner_name)
                accepted = bool if method == "consider" else (lambda index: index is not None)
                self._set(owner, method, self._span(name, getattr(owner, method), self._keep_outcome(accepted)))
                continue
            original = getattr(mods[module], attribute)
            if name in ENGINES:
                evaluations = (
                    (lambda args, result: 1 << args[0].n)
                    if name == "analysis.brute_force_opt"
                    else (lambda args, result: result.evaluations_used)
                )
                replacements[original] = self._engine(name, original, evaluations)
            elif name == "core.bitwise_mutate":
                replacements[original] = self._span(name, original, self._mutation_outcome)
            else:
                replacements[original] = self._span(name, original)
        for factory in PROBLEM_FACTORIES:
            original = getattr(mods["problems"], factory)
            replacements[original] = self._traced_problem(original)
        # Modules bind each other's functions by name at import time, so every
        # binding of a wrapped function is replaced, not just its home module.
        for key, module in list(sys.modules.items()):
            if key == "qdpb" or key.startswith("qdpb."):
                for attr, value in list(vars(module).items()):
                    if callable(value) and value in replacements:
                        self._set(module, attr, replacements[value])
        for cls in (mods["core"].Solution, mods["core"].FlipMask):
            self._set(cls, "__post_init__", self._counted_init(cls.__post_init__))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reading ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def total(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_time(self, name: str) -> float:
        if name not in self.spans:
            return 0.0
        _calls, total, children = self.spans[name]
        return total - children
