"""Per-layer tracing from outside the library.

``Tracer.install`` rebinds the public functions of each layer module at every
module binding where they are imported (``from .core import multiply`` binds
the name separately in ``cli``, ``conjugacy``, ``translation`` and
``problems``), so calls between layers pass through a wrapper; nothing under
``src/`` changes.  Spans record name, start, end, parent span and query id
and stay in memory until the run ends.  Calls into ``core`` and the render
helpers of ``cli`` are too many to keep one span each: they are counted, and
only the outermost call of a nest is timed and charged to the enclosing span.
Self time of a span is its duration minus the time of its child spans and of
the aggregated calls made under it.

The ``structures`` layer is read from the ``functools`` cache statistics of
``GarsideStructure``'s primitives (``cache_stats``), as deltas over a pass
chosen by the caller.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

from garside import cli, conjugacy, core, enumeration, problems, translation
from garside.core import GarsideStructure

MODULES = (cli, problems, translation, conjugacy, enumeration, core)

# Layer functions that get a span each.
SPANNED = {
    cli: ("parse_word",),
    problems: ("solve_power", "solve_root_conjugacy", "solve_root",
               "solve_proper_power_conjugacy", "solve_generalized_power"),
    translation: ("translation_triple", "translation_number", "quotient_translation_number",
                  "straightness", "conjugate_straightness"),
    conjugacy: ("summit", "super_summit_set", "are_conjugate", "_sss_closure"),
}
# Counted, outermost call of a nest timed: (module, names, category).
AGGREGATED = (
    (core, ("normalize", "multiply", "invert", "power", "simple_element"), "core"),
    (cli, ("element_json", "render_word", "_nf_text", "_witness_text", "_answer_json",
           "_answer_text", "_emit"), "cli.render"),
)
# Counted only.
COUNTED = {conjugacy: ("cycling", "decycling")}

STRUCTURE_PRIMITIVES = ("meet", "slide", "right_complement", "tau_simple", "simple_product",
                        "simple_left_divide", "make_simple")


def cache_stats():
    return {name: getattr(GarsideStructure, name).cache_info() for name in STRUCTURE_PRIMITIVES}


def cache_entries() -> int:
    """Entries held by every functools cache on GarsideStructure."""
    return sum(v.cache_info().currsize for v in vars(GarsideStructure).values()
               if hasattr(v, "cache_info"))


class FollowersTimer:
    """Times builds of ``enumeration.followers``; installed before set-up."""

    def __init__(self):
        self.build_s = 0.0
        self.original = enumeration.followers

        @functools.wraps(self.original)
        def timed(S):
            misses = self.original.cache_info().misses
            start = perf_counter()
            result = self.original(S)
            if self.original.cache_info().misses != misses:
                self.build_s += perf_counter() - start
            return result

        enumeration.followers = timed

    def remove(self):
        enumeration.followers = self.original


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, query id, child seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self.counts: Counter = Counter()
        self.totals: Counter = Counter()
        self.depth: Counter = Counter()
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.query, 0.0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def _charge(self, seconds: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]][5] += seconds

    # -- wrappers ------------------------------------------------------

    def _spanned(self, name, fn):
        hook = self._hooks().get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _aggregated(self, category, name, fn, hook=None):
        counter = f"{category}.{name}_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            if hook is not None:
                args = hook(args)
            if self.depth[category]:
                return fn(*args, **kwargs)
            self.depth[category] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                self.depth[category] -= 1
                self.totals[category] += seconds
                self._charge(seconds)

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yield_counter(self, names, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                for name in names:
                    self.counts[name] += 1
                yield item

        return wrapper

    def _count_factors_in(self, args):
        structure, delta_power, raw = args
        raw = tuple(raw)
        self.counts["core.normalize_factors_in"] += len(raw)
        return (structure, delta_power, raw)

    def _hooks(self):
        def closure(args, result):
            self.counts["conjugacy.sss_nodes"] += len(result)
            conjugators = len(args[0].structure.enumerate_simples()) - 1
            self.counts["conjugacy.sss_conjugations"] += len(result) * conjugators

        def root_search(args, result):
            self.counts["problems.root_solutions"] += result.is_solution

        return {"conjugacy._sss_closure": closure, "problems.solve_root_conjugacy": root_search}

    def install(self) -> None:
        wrappers = {}
        for module, names in SPANNED.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for name in names:
                if hasattr(module, name):
                    fn = getattr(module, name)
                    wrappers[id(fn)] = self._spanned(f"{layer}.{name}", fn)
        for module, names, category in AGGREGATED:
            for name in names:
                if hasattr(module, name):
                    fn = getattr(module, name)
                    hook = self._count_factors_in if name == "normalize" else None
                    wrappers[id(fn)] = self._aggregated(category, name, fn, hook)
        for module, names in COUNTED.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for name in names:
                if hasattr(module, name):
                    fn = getattr(module, name)
                    wrappers[id(fn)] = self._counted(f"{layer}.{name}s", fn)
        factor_sequences = enumeration.factor_sequences
        wrappers[id(factor_sequences)] = self._yield_counter(
            ("enumeration.candidates_yielded",), factor_sequences)

        # Binding-specific wrappers: what problems and translation do with
        # an imported function is a count of their own.
        special = {
            (problems, "factor_sequences"): self._yield_counter(
                ("enumeration.candidates_yielded", "problems.candidates_scanned"), factor_sequences),
            (translation, "power"): self._power_factors(wrappers.get(id(core.power), core.power)),
        }
        for module in MODULES:
            for name, value in list(vars(module).items()):
                wrapper = special.get((module, name)) or wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrapper)

    def _power_factors(self, power_fn):
        @functools.wraps(power_fn)
        def wrapper(g, n):
            result = power_fn(g, n)
            self.counts["translation.power_factors"] += len(result.factors)
            return result

        return wrapper

    def remove(self) -> None:
        for module, name, value in reversed(self._undo):
            setattr(module, name, value)
        self._undo.clear()

    # -- results -------------------------------------------------------

    def metrics(self, caches_before: dict, caches_after: dict) -> dict:
        """Per-layer metrics; ``structures.*`` from the two ``cache_stats`` snapshots."""
        self_s, counts_by_name = defaultdict(float), Counter()
        per_root_search = Counter()
        parse_s = 0.0
        for name, start, end, parent, _, child in self.spans:
            self_s[name] += (end - start) - child
            counts_by_name[name] += 1
            if name == "cli.parse_word":
                parse_s += end - start
            if name == "conjugacy.summit" and parent >= 0 \
                    and self.spans[parent][0] == "problems.solve_root_conjugacy":
                per_root_search[parent] += 1
        layer_self = defaultdict(float)
        for name, seconds in self_s.items():
            layer_self[name.split(".")[0]] += seconds

        c = self.counts
        scanned = c["problems.candidates_scanned"]
        out = {
            "cli.parse_s": parse_s,
            "cli.render_s": self.totals["cli.render"],
            "core.normalize_calls": c["core.normalize_calls"],
            "core.normalize_factors_in": c["core.normalize_factors_in"],
            "core.multiply_calls": c["core.multiply_calls"],
            "core.invert_calls": c["core.invert_calls"],
            "core.power_calls": c["core.power_calls"],
            "core.self_s": self.totals["core"],
        }
        for name in STRUCTURE_PRIMITIVES:
            before, after = caches_before[name], caches_after[name]
            hits, misses = after.hits - before.hits, after.misses - before.misses
            out[f"structures.{name}_lookups"] = hits + misses
            out[f"structures.{name}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["structures.cache_entries"] = cache_entries()
        out.update({
            "conjugacy.summit_calls": counts_by_name["conjugacy.summit"],
            "conjugacy.cyclings": c["conjugacy.cyclings"],
            "conjugacy.decyclings": c["conjugacy.decyclings"],
            "conjugacy.summit_self_s": self_s["conjugacy.summit"],
            "conjugacy.sss_closures": counts_by_name["conjugacy._sss_closure"],
            "conjugacy.sss_nodes": c["conjugacy.sss_nodes"],
            "conjugacy.sss_conjugations": c["conjugacy.sss_conjugations"],
            "conjugacy.sss_self_s": self_s["conjugacy._sss_closure"],
            "conjugacy.self_s": layer_self["conjugacy"],
            "translation.triple_calls": counts_by_name["translation.translation_triple"],
            "translation.power_factors": c["translation.power_factors"],
            "translation.self_s": layer_self["translation"],
            "enumeration.candidates_yielded": c["enumeration.candidates_yielded"],
            "problems.root_searches": counts_by_name["problems.solve_root_conjugacy"],
            "problems.candidates_scanned": scanned,
            # The first summit in a root search is of g itself.
            "problems.candidates_summited": sum(max(0, k - 1) for k in per_root_search.values()),
            "problems.candidate_hit_ratio": c["problems.root_solutions"] / scanned if scanned else 0.0,
            "problems.self_s": layer_self["problems"],
        })
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tquery\tchild_s\n")
            for name, start, end, parent, query, child in self.spans:
                fh.write(f"{name}\t{start:.7f}\t{end:.7f}\t{parent}\t{query}\t{child:.7f}\n")
