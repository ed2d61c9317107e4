"""Seeded query streams for the three benchmark workloads.

A workload is a list of *slots*; one pass over the slots is a *round*, and a
run's query pool is many rounds, each shuffled.  Every run therefore carries
the same mix of commands, structures, input sizes and negative instances, and
only the concrete words change with the seed.  That keeps the per-run figures
comparable across seeds while still drawing fresh inputs.

Every query is a CLI argv (``garside.cli.run_command`` input, with ``--json``)
plus an ``expect`` record that ``checks.py`` uses to verify the answer.
Negative instances are certified here by an invariant that the library does
not use (the degree homomorphism to Z, or the braid permutation's cycle
type), so a "no solution" answer can be checked without trusting the solver.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

from garside import invert, multiply, power, simple_element, structure_from_descriptor
from garside.cli import parse_word, render_word
from garside.core import Element

from invariants import cycle_type, degree

SSS_CATALOG = Path(__file__).resolve().parent / "sss_catalog.json"
TNUM_CATALOG = Path(__file__).resolve().parent / "tnum_catalog.json"
SOLVER_CATALOG = Path(__file__).resolve().parent / "solver_catalog.json"

B3, B4, B5, B6 = "braid:3", "braid:4", "braid:5", "braid:6"
T53 = "torus:5:3"
PB3T23 = "product:(braid:3,torus:2:3)"
PT23T23 = "product:(torus:2:3,torus:2:3)"

# Generation draws many rejection samples; a workload that cannot be filled
# within this many draws per query is a bug in the workload definition.
MAX_DRAWS = 20_000
# Catalog words and instances above WORK_CAP times the median work of their
# structure or slot (slide calls at the seed commit) are left out: the tail
# reaches 8x the median, and one such query moves a whole run's throughput.
# README.md gives the share left out.
WORK_CAP = 3


def _capped(entries, work):
    limit = WORK_CAP * sorted(map(work, entries))[len(entries) // 2]
    return [e for e in entries if work(e) <= limit]


# ----------------------------------------------------------------------
# element sampling
# ----------------------------------------------------------------------


def _proper_simples(S):
    identity, delta = S.identity_simple(), S.delta()
    return [s for s in S.enumerate_simples() if s != identity and s != delta]


def element_of_length(S, rng: random.Random, length: int, inf: int) -> Element:
    """Delta^inf times a positive element of canonical length exactly `length`.

    Random proper simples are multiplied on until the canonical length
    reaches the target; a product with one more simple grows the length by at
    most one, so the target is hit exactly.
    """
    proper = _proper_simples(S)
    g = Element(S, 0, ())
    draws = 0
    while g.canonical_length != length:
        draws += 1
        if draws > MAX_DRAWS:
            raise RuntimeError(f"could not reach canonical length {length} in {S.descriptor()}")
        g = multiply(g, simple_element(rng.choice(proper)))
    return Element(S, inf, g.factors)


def short_element(S, rng: random.Random, max_inf: int = 1, max_len: int = 2) -> Element:
    return element_of_length(S, rng, rng.randint(0, max_len), rng.randint(-max_inf, max_inf))


def nontrivial(S, rng, max_inf=1, max_len=2) -> Element:
    while True:
        g = short_element(S, rng, max_inf, max_len)
        if g.factors:
            return g


def conj(x: Element, g: Element) -> Element:
    """x^{-1} g x."""
    return multiply(multiply(invert(x), g), x)


def _q(command: str, desc: str, words: list[str], expect: dict, flags=(), props=None) -> dict:
    argv = [command, "--group", desc, "--json", *flags, *words]
    return {"argv": argv, "words": words, "expect": expect, "props": props or {}}


def _props(desc, command, elements, negative=False, **extra):
    return {"structure": desc, "command": command,
            "lengths": [g.canonical_length for g in elements], "negative": negative, **extra}


# ----------------------------------------------------------------------
# tnum-long
# ----------------------------------------------------------------------

# Canonical lengths of the tnum words in the catalog.  tnum computes summits
# of g^(N^2), whose factor count is N^2 times the length of g (100 to 1,000
# factors here); at the seed commit one braid:5 tnum costs about 0.03 s per
# factor of g, so these lengths give roughly 0.05-1 s per query.  Summit
# queries are cheap and draw fresh words at the full long lengths.
TNUM_LENGTHS = {B5: (4, 7), B6: (1, 3), T53: (20, 35), PB3T23: (3, 6)}
SUMMIT_LENGTHS = {B5: (30, 60), B6: (20, 40), T53: (100, 200), PB3T23: (20, 40)}
# One tnum word per sixth of the catalog's work range (slide calls at the
# seed commit), so every round carries cheap, middling and dear words, and
# the words of one slot differ little in cost between seeds.
TNUM_BANDS = 6
# Two summit slots per structure keep summit at 1 in 4 queries.
TNUM_SLOTS = [("tnum", d, band) for d in TNUM_LENGTHS for band in range(TNUM_BANDS)] + [
    ("summit", d, SUMMIT_LENGTHS[d]) for d in SUMMIT_LENGTHS
] * 2


def _tnum_bands(catalog, rng) -> dict:
    """Each (structure, band) as a seeded shuffle, drawn without replacement."""
    bands = {}
    for desc, block in catalog.items():
        entries = _capped(block["entries"], lambda e: e[2])
        width = len(entries) // TNUM_BANDS
        for band in range(TNUM_BANDS):
            bands[desc, band] = entries[band * width:(band + 1) * width]
            rng.shuffle(bands[desc, band])
    return bands


def _tnum_long(slot, rng, catalog) -> dict:
    command, desc, arg = slot
    S = structure_from_descriptor(desc)
    if command == "summit":
        g = element_of_length(S, rng, rng.randint(*arg), rng.randint(-2, 2))
        return _q(command, desc, [render_word(g)], {"kind": command}, props=_props(desc, command, [g]))
    word, _, work = catalog[desc, arg].pop()
    g = parse_word(S, word)
    return _q(command, desc, [word], {"kind": command},
              props=_props(desc, command, [g], slide_calls=work))


# ----------------------------------------------------------------------
# sss-conj
# ----------------------------------------------------------------------

# SSS-size bands of the catalog words.  A conj or sss query walks the whole
# super summit set of its first word, so the band fixes its cost: at the seed
# commit about 4 ms per SSS element in braid:5 and 30 ms in braid:6.  Narrow
# bands keep the work per round the same for every seed.
SSS_BANDS = {
    (B5, "s"): (4, 6), (B5, "m"): (10, 12), (B5, "l"): (28, 32),
    (B6, "s"): (4, 4), (B6, "m"): (12, 12),
}
SSS_SLOTS = [
    ("conj", B5, "s", True), ("conj", B5, "m", True), ("conj", B5, "l", True),
    ("conj", B5, "s", False), ("conj", B5, "m", False), ("conj", B5, "l", False),
    ("conj", B6, "s", True), ("conj", B6, "s", False), ("conj", B6, "m", True),
    ("conj", B6, "m", False), ("sss", B5, "l", None), ("sss", B6, "s", None),
]
# Conjugators for positive pairs and for disguising negative partners.
CONJUGATOR_LEN = {B5: 3, B6: 2}


def _catalog_index(catalog) -> dict:
    """Catalog entries by (structure, band), and each entry's negative partners.

    A partner has the same (inf_s, sup_s), so deciding the pair runs the full
    closure, and differs in degree or permutation cycle type, which proves
    the pair non-conjugate without the library.
    """
    by_band, partners = defaultdict(list), {}
    for desc, block in catalog.items():
        S = structure_from_descriptor(desc)
        entries = []
        for word, inf_s, sup_s, size in block["entries"]:
            g = parse_word(S, word)
            entries.append((word, inf_s, sup_s, size, g, (degree(g), cycle_type(g))))
        for e in entries:
            partners[desc, e[0]] = [o for o in entries if o[1:3] == e[1:3] and o[5] != e[5]]
            for (d, name), (lo, hi) in SSS_BANDS.items():
                if d == desc and lo <= e[3] <= hi:
                    by_band[desc, name].append(e)
    return {"by_band": by_band, "partners": partners}


def _sss_conj(slot, rng, ctx) -> dict:
    command, desc, band, positive = slot
    S = structure_from_descriptor(desc)
    candidates = ctx["by_band"][desc, band]
    if positive is False:
        candidates = [e for e in candidates if ctx["partners"][desc, e[0]]]
    word, inf_s, sup_s, size, g, _ = rng.choice(candidates)
    if command == "sss":
        return _q("sss", desc, [word], {"kind": "sss", "size": size, "inf_s": inf_s, "sup_s": sup_s},
                  props=_props(desc, "sss", [g], sss_size=size))
    x = short_element(S, rng, 1, CONJUGATOR_LEN[desc])
    other = g if positive else rng.choice(ctx["partners"][desc, word])[4]
    h = conj(x, other)
    return _q("conj", desc, [word, render_word(h)], {"kind": "conj", "conjugate": positive},
              props=_props(desc, "conj", [g, h], negative=not positive, sss_size=size))


# ----------------------------------------------------------------------
# solver-mix
# ----------------------------------------------------------------------

SOLVER_SLOTS = (
    [(c, B3, p) for c in ("power", "root", "properpower", "genpower", "genpower-conj")
     for p in (True, False)]
    + [(c, B4, True) for c in ("power", "root", "properpower", "genpower", "genpower-conj")]
    + [("power", B4, False), ("root", B4, False), ("genpower", B4, False)]
    + [(c, d, p) for d in (T53, PT23T23) for c in ("power", "root", "properpower")
       for p in (True, False)]
)
# properpower negatives on braid:4 and the product take 0.7-4 s each at the
# seed commit, which would make up most of a run's time; braid:3 and
# torus:5:3 carry the proven-no-solution properpower path instead.
SOLVER_SLOTS.remove(("properpower", PT23T23, False))
# Planted properpower instances use exponent 2, found by the first root
# search.  With exponent 3 the square-root search fails first, which in
# braid:4 costs 0.02 s or 0.8 s depending on the word, too uneven a slot
# for a run to average out.
SOLVER_SLOTS = [slot + (2,) if slot[0] == "properpower" and slot[2] else slot
                for slot in SOLVER_SLOTS]
# The three dearest slots (full failing scans, 80-160 ms) appear twice, so
# they make up a sixth of the queries and the p90 falls inside their spread
# rather than in the gap below them, where it would jump between runs.
SOLVER_SLOTS += [("properpower", T53, False), ("root", PT23T23, False), ("root", B4, False)]


# Work strata per solver slot; see _solver_draws.
SOLVER_STRATA = 4


def _draw(rng, make, accept):
    for _ in range(MAX_DRAWS):
        value = make()
        if accept(value):
            return value
    raise RuntimeError("rejection sampling found no instance")


def solver_query(slot, rng) -> dict:
    command, desc, positive, *exponent = slot
    S = structure_from_descriptor(desc)
    x = short_element(S, rng, 1, 2)
    k = exponent[0] if exponent else rng.choice((2, 3))
    atoms = [simple_element(S.atom_simple(a.index)) for a in S.atoms()]

    if command == "power":
        h = _draw(rng, lambda: nontrivial(S, rng, 1, 2), lambda h: degree(h) not in (0, 1, -1))
        if positive:
            g = conj(x, power(h, k))
        else:
            g = _draw(rng, lambda: multiply(conj(x, power(h, k)), rng.choice(atoms)),
                      lambda g: degree(g) % degree(h) != 0)
        expect = {"kind": "power", "n": k if positive else None}
        return _q("power", desc, [render_word(g), render_word(h)], expect, ("--conjugacy",),
                  _props(desc, command, [g, h], not positive))

    if command == "root":
        if positive:
            g = conj(x, power(nontrivial(S, rng, 1, 2), k))
        else:
            # A degree not dividing deg g admits no root.
            g = _draw(rng, lambda: nontrivial(S, rng, 1, 3), lambda g: degree(g) % 2 or degree(g) % 3)
            k = 2 if degree(g) % 2 else 3
        return _q("root", desc, [render_word(g)], {"kind": "root", "n": k, "solvable": positive},
                  ("-n", str(k)), _props(desc, command, [g], not positive))

    if command == "properpower":
        if positive:
            h = nontrivial(S, rng, 1, 1)
            g = conj(x, power(h, k))
        else:
            # Degree +-1 rules out h^n with n >= 2.
            g = _draw(rng, lambda: nontrivial(S, rng, 1, 2), lambda g: abs(degree(g)) == 1)
        return _q("properpower", desc, [render_word(g)], {"kind": "properpower", "max_n": k if positive else None},
                  props=_props(desc, command, [g], not positive))

    # genpower [--conjugacy], braid structures only
    flags = ("--conjugacy",) if command == "genpower-conj" else ()
    if positive:
        c = nontrivial(S, rng, 1, 1)
        p, q = rng.choice(((1, 2), (2, 1), (2, 3), (1, 3)))
        g, h = power(c, p), power(c, q)
        if flags:
            g = conj(x, g)
    else:
        # deg g = 0 and deg h != 0 force m = 0 in g^n = h^m.
        g = _draw(rng, lambda: nontrivial(S, rng, 1, 2), lambda g: degree(g) == 0)
        h = _draw(rng, lambda: nontrivial(S, rng, 1, 1), lambda h: degree(h) != 0)
    return _q("genpower", desc, [render_word(g), render_word(h)], {"kind": "genpower", "solvable": positive,
                                                 "conjugacy": bool(flags)},
              flags, _props(desc, command, [g, h], not positive))


# ----------------------------------------------------------------------
# pools
# ----------------------------------------------------------------------

class Workload(NamedTuple):
    slots: list
    # Rounds per pool: enough that a run at the seed commit's speed does not
    # wrap around, so a faster program is measured on fresh inputs too.
    pool_rounds: int
    # Peak RSS is read after this many rounds (a half to two thirds of a
    # 30 s run at the seed commit), so it reflects a fixed amount of work
    # rather than how many queries fit in the run.
    rss_rounds: int
    # Rounds a traced run replays per second of --seconds, sized so its
    # three passes together take about --seconds.
    trace_rounds_per_s: float


WORKLOADS = {
    "tnum-long": Workload(TNUM_SLOTS, pool_rounds=20, rss_rounds=4, trace_rounds_per_s=0.06),
    "sss-conj": Workload(SSS_SLOTS, pool_rounds=30, rss_rounds=14, trace_rounds_per_s=0.12),
    "solver-mix": Workload(SOLVER_SLOTS, pool_rounds=50, rss_rounds=20, trace_rounds_per_s=0.2),
}


def slot_key(slot) -> str:
    return " ".join(map(str, slot))


def _solver_draws(catalog, rng) -> dict:
    """Each slot's catalog instances in a seeded order, drawn without replacement.

    A slot's instances differ up to a hundredfold in work, with two modes in
    some slots.  So they are split by work into SOLVER_STRATA strata,
    shuffled within each and dealt in turn from each stratum, starting at a
    stratum that differs between slots: every run then takes the same share
    of cheap and dear instances of every slot, and every round a mix of both.
    """
    draws = {}
    for phase, (key, entries) in enumerate(catalog.items()):
        kept = sorted(_capped(entries, lambda e: e[1]), key=lambda e: e[1])
        strata = [kept[i * len(kept) // SOLVER_STRATA:(i + 1) * len(kept) // SOLVER_STRATA]
                  for i in range(SOLVER_STRATA)]
        for stratum in strata:
            rng.shuffle(stratum)
        depth = min(map(len, strata))
        dealt = [strata[(phase + j) % SOLVER_STRATA][j // SOLVER_STRATA]
                 for j in range(depth * SOLVER_STRATA)]
        # pop() draws from the end.
        draws[key] = [query for query, _ in reversed(dealt)]
    return draws


def _rounds(workload: str, rng: random.Random, rounds: int) -> list[dict]:
    """`rounds` rounds of the workload's slots, each in a shuffled order."""
    slots = WORKLOADS[workload].slots
    ctx = {}
    if workload == "sss-conj":
        ctx = _catalog_index(json.loads(SSS_CATALOG.read_text()))
    if workload == "tnum-long":
        ctx = _tnum_bands(json.loads(TNUM_CATALOG.read_text()), rng)
    if workload == "solver-mix":
        ctx = _solver_draws(json.loads(SOLVER_CATALOG.read_text()), rng)
    make = {
        "tnum-long": lambda slot: _tnum_long(slot, rng, ctx),
        "sss-conj": lambda slot: _sss_conj(slot, rng, ctx),
        "solver-mix": lambda slot: ctx[slot_key(slot)].pop(),
    }[workload]
    pool = []
    for _ in range(rounds):
        order = list(range(len(slots)))
        rng.shuffle(order)
        for i in order:
            query = make(slots[i])
            query["props"]["slot"] = slot_key(slots[i])
            pool.append(query)
    return pool


def generate(workload: str, seed: int) -> dict:
    """The pool, warm-up list, structures and tuning of one seeded run."""
    spec = WORKLOADS[workload]
    pool = _rounds(workload, random.Random(f"{workload}:{seed}"), spec.pool_rounds)
    # Warm-up: a summit of the first word of every query of one round drawn
    # with a fixed rng, which touches each structure's primitives on workload
    # inputs; the warm-up, and so setup_s, is the same for every seed.
    warmup = [["summit", "--group", q["argv"][2], "--json", q["words"][0]]
              for q in _rounds(workload, random.Random(f"{workload}:warmup"), 1)]
    structures = sorted({slot[1] for slot in spec.slots})
    return {"workload": workload, "seed": seed, "round": len(spec.slots), "structures": structures,
            "rss_rounds": spec.rss_rounds, "trace_rounds_per_s": spec.trace_rounds_per_s,
            "warmup": warmup, "queries": pool}
