#!/usr/bin/env python3
"""Check that two garside source trees give the same CLI answers.

    python3 scripts/same_answers.py OLD_SRC NEW_SRC [--seed 5] [--per-workload 300] [--per-command 5]

OLD_SRC and NEW_SRC are ``src/`` directories (each holding the ``garside``
package).  One seeded list of ``--json`` CLI queries is drawn, then run in a
fresh interpreter per tree, once as drawn and once more without ``--json``,
and the exit code, stdout and stderr of every run are compared, so both the
JSON and the text output are checked.  The list is

* the first ``--per-workload`` queries of each benchmark workload's pool,
  drawn through ``bench/workloads.generate`` with ``--seed`` and the OLD_SRC
  tree (the pool is only read);
* the first ``--per-workload`` instances of every ``root`` and
  ``properpower`` slot of ``bench/solver_catalog.json`` (the whole slot at
  the default, 120 instances each);
* every CLI command on ``braid:2``, ``braid:3``, ``braid:4``,
  ``torus:5:3``, ``torus:2:3``, the nested product
  ``product:(product:(braid:3,torus:2:3),braid:3)`` and ``torus:4:6``
  (last, so that the families before it keep their words), ``--per-command``
  short random words each, with ``D`` tokens anywhere and exponents in
  ±1..3, and with powers and conjugates of them as the second word so
  that positive answers occur too, and ``conj`` of each word and its
  token reversal, which share degree and cycle types, so that the walk of
  the super summit set decides them (built from the drawn tokens, with no
  further draw, so every other query keeps its words);
* ``tnum`` on ``--per-command`` random words of 4 to 8 tokens each on
  ``braid:7`` and ``braid:8``, drawn after all of the above, whose summit
  representatives are seldom rigid, so that the triple comes from the
  summits of their powers;
* ``nf`` of five invalid words per family, built from its first atom name
  a: a malformed token ``a^x``, a zero exponent ``a^0``, an unknown
  generator ``az``, an unknown generator before a malformed token, and a
  word over the atom bound that holds an unknown generator, so that the
  order of the reader's errors is compared on stderr and in exit codes;
* per family, ``root -n 2`` and ``properpower`` of the empty word, and
  ``power``, ``genpower`` (each with and without ``--conjugacy``) and
  ``conj`` of the empty word paired with itself, and with ``D`` and the
  first atom in both orders, so that the identity's answers are compared.

Prints the query count (text runs included) and every difference; exits 1
on any difference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

WORKLOADS = ("tnum-long", "sss-conj", "solver-mix")
STRUCTURES = (
    "braid:2",
    "braid:3",
    "braid:4",
    "torus:5:3",
    "torus:2:3",
    "product:(product:(braid:3,torus:2:3),braid:3)",
    "torus:4:6",
)
TNUM_STRUCTURES = ("braid:7", "braid:8")
# A whole tree's run must end within this many seconds.
RUN_TIMEOUT_S = 3600


def _import_garside(src: str):
    sys.path.insert(0, str(Path(src).resolve()))
    import garside

    if not Path(garside.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"garside imported from {garside.__file__}, not from {src}")
    return garside


def _inverse(tokens: list[str]) -> list[str]:
    out = []
    for token in reversed(tokens):
        name, _, exp = token.partition("^")
        out.append(f"{name}^{-int(exp or 1)}")
    return out


def _token(atoms: list[str], rng: random.Random) -> str:
    """An atom or, one time in four, ``D``, with an exponent in ±1..3."""
    name = "D" if rng.random() < 0.25 else rng.choice(atoms)
    return f"{name}^{rng.choice((1, -1, 2, -2, 3, -3))}"


def _command_queries(desc: str, atoms: list[str], rng: random.Random, count: int) -> list[list[str]]:
    """Every CLI command on `count` short random words over `atoms` and ``D``."""
    queries = []
    for _ in range(count):
        w = [_token(atoms, rng) for _ in range(rng.randint(1, 3))]
        c = [_token(atoms, rng) for _ in range(rng.randint(0, 2))]
        word = " ".join(w)
        other = " ".join(_token(atoms, rng) for _ in range(len(w)))
        conjugate = " ".join(_inverse(c) + w + c)
        n = rng.choice((2, 3))
        nth_power = " ".join(w * n)
        base = ["--group", desc, "--json"]
        queries += [
            ["nf", *base, word],
            ["tnum", *base, word],
            ["straight", *base, word],
            ["summit", *base, word],
            ["sss", *base, word],
            ["conj", *base, word, rng.choice((conjugate, other))],
            ["conj", *base, word, " ".join(reversed(w))],
            ["power", *base, nth_power, word],
            ["power", *base, "--conjugacy", rng.choice((conjugate, nth_power)), word],
            ["root", *base, "-n", str(n), rng.choice((nth_power, word))],
            ["properpower", *base, rng.choice((nth_power, word))],
            ["genpower", *base, " ".join(w * 2), " ".join(w * 3)],
            ["genpower", *base, "--conjugacy", word, rng.choice((conjugate, other))],
        ]
    return queries


def _invalid_queries(desc: str, atom: str) -> list[list[str]]:
    """``nf`` of words that fail to parse, or exceed the atom bound, in
    ways built from one atom name."""
    words = [f"{atom}^x", f"{atom}^0", f"{atom}z", f"{atom}z {atom}^x",
             f"{atom}z {atom}^100000"]
    return [["nf", "--group", desc, "--json", word] for word in words]


def _identity_queries(desc: str, atom: str) -> list[list[str]]:
    """The solvers and ``conj`` on the empty word, alone or paired with
    itself, ``D`` and one atom."""
    base = ["--group", desc, "--json"]
    pairs = [("", ""), ("", "D"), ("D", ""), ("", atom), (atom, "")]
    queries = [["root", *base, "-n", "2", ""], ["properpower", *base, ""]]
    for command in (["power"], ["power", "--conjugacy"], ["genpower"],
                    ["genpower", "--conjugacy"], ["conj"]):
        queries += [[*command, *base, x, y] for x, y in pairs]
    return queries


def _generate(src: str, seed: int, per_workload: int, per_command: int) -> list[list[str]]:
    _import_garside(src)
    sys.path.insert(0, str(BENCH))
    from workloads import generate

    from garside import structure_from_descriptor

    queries = []
    for workload in WORKLOADS:
        queries += [q["argv"] for q in generate(workload, seed)["queries"][:per_workload]]
    catalog = json.loads((BENCH / "solver_catalog.json").read_text())
    for slot, instances in catalog.items():
        if slot.split()[0] in ("root", "properpower"):
            queries += [query["argv"] for query, _work in instances[:per_workload]]
    rng = random.Random(f"same-answers:{seed}")
    for desc in STRUCTURES:
        atoms = [atom.name for atom in structure_from_descriptor(desc).atoms()]
        queries += _command_queries(desc, atoms, rng, per_command)
    for desc in TNUM_STRUCTURES:
        atoms = [atom.name for atom in structure_from_descriptor(desc).atoms()]
        for _ in range(per_command):
            word = " ".join(_token(atoms, rng) for _ in range(rng.randint(4, 8)))
            queries.append(["tnum", "--group", desc, "--json", word])
    for desc in STRUCTURES:
        atom = structure_from_descriptor(desc).atoms()[0].name
        queries += _invalid_queries(desc, atom) + _identity_queries(desc, atom)
    return queries + [[arg for arg in argv if arg != "--json"] for argv in queries]


def _run(src: str, queries: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr] of each query, run in this process."""
    _import_garside(src)
    from garside.cli import run_command

    results = []
    for argv in queries:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run_command(argv)
            except Exception as exc:  # an uncaught error is an answer to compare
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    return results


def _child(role: str, payload: dict):
    proc = subprocess.run(
        [sys.executable, __file__, "--role", role],
        input=json.dumps(payload), capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"{role} child failed for {payload['src']}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--per-workload", type=int, default=300)
    parser.add_argument("--per-command", type=int, default=5)
    parser.add_argument("--role", choices=("gen", "run"), help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.role is not None:
        payload = json.load(sys.stdin)
        if args.role == "gen":
            result = _generate(payload["src"], payload["seed"], payload["per_workload"],
                               payload["per_command"])
        else:
            result = _run(payload["src"], payload["queries"])
        json.dump(result, sys.stdout)
        return 0

    if args.old_src is None or args.new_src is None:
        parser.error("OLD_SRC and NEW_SRC are required")
    queries = _child("gen", {"src": args.old_src, "seed": args.seed,
                             "per_workload": args.per_workload, "per_command": args.per_command})
    old = _child("run", {"src": args.old_src, "queries": queries})
    new = _child("run", {"src": args.new_src, "queries": queries})
    differences = 0
    for argv, a, b in zip(queries, old, new):
        if a != b:
            differences += 1
            print(f"DIFFERENT: {json.dumps(argv)}")
            for label, x, y in zip(("exit", "stdout", "stderr"), a, b):
                if x != y:
                    print(f"  {label} old: {x!r}\n  {label} new: {y!r}")
    print(f"{len(queries)} queries, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
