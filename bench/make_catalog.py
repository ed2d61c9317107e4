"""Rebuild the three input catalogs.

    python3 bench/make_catalog.py

The sss-conj and tnum-long workloads draw their words from these catalogs so
that every seed gets the same mix of work:

* ``sss_catalog.json``: short braid words with their super summit set size.
  The size of the class fixes the cost of a ``conj`` or ``sss`` query.
  Words whose super summit set exceeds the per-structure cap are left out
  and counted under ``over_cap``, so the share the workload skips is on
  record.
* ``tnum_catalog.json``: words for ``tnum`` with the number of ``slide``
  calls one ``tnum`` query on them makes at the seed commit.  The count
  varies about tenfold between words of one length, so the workload draws
  one word from each sixth of that range per round.
* ``solver_catalog.json``: for each solver-mix slot, seeded instances (the
  query and what its answer must satisfy) with their ``slide`` calls.

The script always rebuilds all three, so their work counts come from one
commit: the one the catalogs were built at (the seed commit for the
committed files).  Rebuilding at a later commit re-measures those counts
with that commit's library, which moves the work bands and the words the
workloads leave out.  The files are deterministic.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from garside import ResourceLimitError, structure_from_descriptor, super_summit_set  # noqa: E402
from garside.cli import render_word, run_command  # noqa: E402
from garside.core import GarsideStructure  # noqa: E402
from garside.enumeration import sample_element  # noqa: E402

from workloads import SOLVER_SLOTS, TNUM_LENGTHS, element_of_length, slot_key, solver_query  # noqa: E402

# (descriptor, max_len, SSS cap, words to keep)
SSS_PLAN = (("braid:5", 3, 160, 600), ("braid:6", 2, 48, 300))
TNUM_WORDS = 150
SOLVER_INSTANCES = 120


def build_sss() -> dict:
    catalog = {}
    for desc, max_len, cap, want in SSS_PLAN:
        S = structure_from_descriptor(desc)
        rng = random.Random(f"sss-catalog:{desc}")
        entries, seen, over_cap = [], set(), 0
        while len(entries) < want:
            g = sample_element(S, rng, max_inf=1, max_len=max_len)
            word = render_word(g)
            if not g.factors or word in seen:
                continue
            seen.add(word)
            try:
                sss = super_summit_set(g, cap=cap)
            except ResourceLimitError:
                over_cap += 1
                continue
            entries.append([word, sss[0].inf, sss[0].sup, len(sss)])
        catalog[desc] = {"max_inf": 1, "max_len": max_len, "cap": cap,
                         "distinct_drawn": len(seen), "over_cap": over_cap, "entries": entries}
    return catalog


def slide_calls(argv) -> int:
    info = GarsideStructure.slide.cache_info
    before = info()
    with contextlib.redirect_stdout(io.StringIO()):
        if run_command(argv) != 0:
            raise RuntimeError(f"query failed: {argv}")
    after = info()
    return after.hits + after.misses - before.hits - before.misses


def build_tnum() -> dict:
    catalog = {}
    for desc, (lo, hi) in TNUM_LENGTHS.items():
        S = structure_from_descriptor(desc)
        rng = random.Random(f"tnum-catalog:{desc}")
        entries = []
        for _ in range(TNUM_WORDS):
            g = element_of_length(S, rng, rng.randint(lo, hi), rng.randint(-2, 2))
            word = render_word(g)
            entries.append([word, g.canonical_length,
                            slide_calls(["tnum", "--group", desc, "--json", word])])
        catalog[desc] = {"lengths": [lo, hi], "entries": sorted(entries, key=lambda e: e[2])}
    return catalog


def build_solver() -> dict:
    catalog = {}
    for slot in SOLVER_SLOTS:
        rng = random.Random(f"solver-catalog:{slot_key(slot)}")
        queries = [solver_query(slot, rng) for _ in range(SOLVER_INSTANCES)]
        catalog[slot_key(slot)] = [[q, slide_calls(q["argv"])] for q in queries]
    return catalog


if __name__ == "__main__":
    (BENCH / "sss_catalog.json").write_text(json.dumps(build_sss(), indent=1) + "\n")
    (BENCH / "tnum_catalog.json").write_text(json.dumps(build_tnum(), indent=1) + "\n")
    # One instance per line keeps the file diffable without indenting every field.
    blocks = [f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]"
              for key, entries in build_solver().items()]
    (BENCH / "solver_catalog.json").write_text("{\n" + ",\n".join(blocks) + "\n}\n")
