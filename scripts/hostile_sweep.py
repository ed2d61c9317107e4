#!/usr/bin/env python3
"""Run a seeded sweep of random CLI queries, each in a fresh interpreter.

    python3 scripts/hostile_sweep.py [--seed 1] [--count 150] [--timeout 20]

The query list is a function of ``--seed`` and ``--count`` alone.  Each
query draws

* a structure: ``braid:3`` to ``braid:7``, ``torus:5:3``, ``torus:7:4``,
  ``torus:40:39``, ``product:(braid:3,braid:4)``,
  ``product:(braid:4,torus:5:3)`` or ``product:(braid:5,braid:5)``;
* a command: ``tnum``, ``summit``, ``sss``, ``conj`` (of a word and its
  reversal, or of a word and its rotation by one token, half each),
  ``root -n 2`` or ``-n 3``, ``properpower``, ``power --conjugacy`` or
  ``genpower --conjugacy``;
* words of 3 to 14 tokens, each an atom with exponent +-1 or +-2, or in
  one token of ten up to +-30.

The queries run one at a time through ``hard_inputs.run_child``: this
checkout's ``src/``, a fresh interpreter per query, an address-space cap
of ``hard_inputs.MEMORY_MB`` and a ``--timeout`` in seconds.  One line is
printed per query, with its outcome (``answer``, ``resource_limit``,
``unsupported``, ``error``, ``timeout`` or ``crashed``), its time and the
command, and a summary at the end.  The north star is that no query times
out or crashes; each one that does is a slow input to pin in
``hard_inputs.py``.
"""

from __future__ import annotations

import argparse
import random
import shlex
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from hard_inputs import ROOT, describe, run_child  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
from garside import structure_from_descriptor  # noqa: E402

STRUCTURES = (
    "braid:3", "braid:4", "braid:5", "braid:6", "braid:7",
    "torus:5:3", "torus:7:4", "torus:40:39",
    "product:(braid:3,braid:4)", "product:(braid:4,torus:5:3)", "product:(braid:5,braid:5)",
)
COMMANDS = ("tnum", "summit", "sss", "conj", "root", "properpower", "power", "genpower")
OUTCOMES = ("answer", "resource_limit", "unsupported", "error", "timeout", "crashed")


def random_word(rng: random.Random, names: list[str]) -> str:
    tokens = []
    for _ in range(rng.randint(3, 14)):
        name = rng.choice(names)
        size = rng.randint(3, 30) if rng.random() < 0.1 else rng.choice((1, 2))
        exponent = rng.choice((1, -1)) * size
        tokens.append(name if exponent == 1 else f"{name}^{exponent}")
    return " ".join(tokens)


def queries(seed: int, count: int) -> list[list[str]]:
    """The sweep's CLI argv lists, drawn from `seed`."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        group = rng.choice(STRUCTURES)
        names = [atom.name for atom in structure_from_descriptor(group).atoms()]
        command = rng.choice(COMMANDS)
        word = random_word(rng, names)
        argv = [command, "--group", group]
        if command == "conj":
            tokens = word.split()
            other = tokens[::-1] if rng.random() < 0.5 else tokens[1:] + tokens[:1]
            argv += [word, " ".join(other)]
        elif command in ("power", "genpower"):
            argv += [word, random_word(rng, names), "--conjugacy"]
        elif command == "root":
            argv += ["-n", str(rng.choice((2, 3))), word]
        else:
            argv.append(word)
        out.append(argv)
    return out


def run_query(argv: list[str], timeout: float) -> tuple[str, str]:
    """(outcome, report line) of one query run in a fresh interpreter."""
    report = run_child(("cli", argv), str(ROOT / "src"), timeout)
    command = f"garside {shlex.join(argv)}"
    if "timeout" in report:
        return "timeout", f"timeout         >{timeout:g} s  {command}"
    if "failed" in report:
        return "crashed", f"crashed         {command}  ->  {report['failed']}"
    code = report["exit"]
    if code == 0:
        outcome = "answer"
    elif code == 1:
        outcome = "resource_limit" if report["answer"].startswith("resource limit") else "unsupported"
    else:
        outcome = "error"
    return outcome, f"{outcome:<15} {report['seconds']:.3f} s  {command}  ->  {describe(report)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the query list")
    parser.add_argument("--count", type=int, default=150, help="number of queries")
    parser.add_argument("--timeout", type=float, default=20.0, help="seconds per query")
    args = parser.parse_args(argv)
    outcomes = Counter()
    for i, query in enumerate(queries(args.seed, args.count), start=1):
        outcome, line = run_query(query, args.timeout)
        outcomes[outcome] += 1
        print(f"{i:4d}  {line}", flush=True)
    print(f"{args.count} queries: " + ", ".join(f"{outcomes[o]} {o}" for o in OUTCOMES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
