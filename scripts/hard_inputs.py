#!/usr/bin/env python3
"""Time the hard inputs H1-H13 of ROADMAP.md, each in a fresh interpreter.

    python3 scripts/hard_inputs.py [ID ...] [--src SRC] [--timeout 60]

Every input runs in its own subprocess, which imports ``garside`` from SRC
(``src/`` of this checkout by default), times the one call in process and
prints its time, its peak resident set size (``ru_maxrss``, in MB: Linux
starts it at the launching process's own peak, about 15 MB for this script
and 18 MB for ``hostile_sweep.py``) and its answer, and the CLI exit code
when it is not 0 (1 for ``resource_limit``, 2 for an error); a subprocess
that outlives ``--timeout`` seconds is stopped and reported as a timeout,
and one that asks for more than MEMORY_MB of address space fails with a
MemoryError (the ``sss`` of H3 needs about 1.5 GB).  With no IDs every
input runs, in table order.  ``scripts/hostile_sweep.py`` runs its queries
through the same ``run_child``.

The words are pinned here from the recipes of the ROADMAP table:

* H1: ``root -n 2`` on positive ``braid:5`` and ``braid:6`` words, each
  ``bench/workloads.element_of_length(S, random.Random(1), L, 0)`` with
  L = 7 and 8 on ``braid:5`` (32 and 38 letters) and L = 5 and 6 on
  ``braid:6`` (54 and 62 letters).
* H2: ``root -n 2`` on ``element_of_length(S, random.Random(seed), L, 0)``
  with seeds 1 and 2, L = 5 on ``product:(braid:4,braid:4)`` and L = 6 on
  ``product:(braid:4,torus:5:3)``.
* H3: ``conj`` of a 12-letter mixed ``braid:7`` word (letters
  ``a<randint(1, 6)>^<±1>`` from ``random.Random(5)``) with its cyclic
  rotation by one letter, a conjugate whose summit the walk of the
  35,212-element super summit set reaches early (H3a); ``sss`` of a
  10-letter ``braid:8`` word drawn the same way (H3b); and ``conj`` of a
  10-letter ``braid:6`` word with its reversal (H3c): the two share
  degree, cycle type and ``(inf_s, sup_s)`` but are not conjugate, so the
  walk covers the whole 10,516-element super summit set.
* H4: ``parse_word`` of mixed ``braid:4`` words of 20,000 and 40,000
  letters ``a<randint(1, 3)>^<±1>`` from ``random.Random(0)``, built in
  the subprocess.
* H5: ``root -n 2`` on ``a1^k a2^-k`` in ``braid:3``, k = 20 (H5a) and
  k = 1000 (H5b): degree 0, ``t_inf = -k`` and ``t_sup = k``, so the root
  window is k factors long and the degree cuts little of it.  H5c is the
  planted square ``(a1^600 a2^-600)^2``: a 1,200-factor window.
* H6: ``root -n 2`` on ``a1^9 a2^-12 a1^10 a2^-11`` (H6a) and
  ``a1^12 a2^-9 a1^11 a2^-10`` (H6b) in ``braid:3``: 22-factor windows whose
  degree and cycle type both admit a square root, so only the candidate
  cap ends the search.
* H7: ``root -n 2`` on ``L.a1^2 R.a1^2`` in ``product:(braid:8,braid:8)``:
  the root search needs the table of simples, 40,320^2 of them, far above
  ``core.MAX_SIMPLES``.
* H8: five queries of a seeded hostile sweep, pinned with the exact argv
  of the ROADMAP rows: ``properpower`` on a mixed ``braid:7`` word (H8a),
  ``root -n 2`` on a ``braid:7`` word (H8b), ``root -n 3`` on a
  ``braid:6`` word whose 12-factor window has a cube root's degree and
  cycle type (H8c), ``properpower`` on a ``product:(braid:5,braid:5)``
  word (H8d) and ``sss`` of the 3-letter ``braid:7`` word
  ``a6 a2^2 a3^-2``, whose super summit set runs towards the cap (H8e).
  Each takes from several seconds to more than 90.
* H9: words whose ``g^(N^2)`` or generalized power would have more than
  ``core.MAX_POWER_FACTORS`` factors: ``tnum`` of ``a1^100000`` in
  ``braid:7`` (H9a), whose ``g^(N^2)`` would have about 4.4·10^7 factors
  but whose summit is rigid, so its triple is read off with no power and
  it answers in well under a second; and ``genpower`` of ``a1`` and
  ``a1^100000`` in ``braid:7`` (H9b), which answers ``resource_limit``
  within seconds.
* H10: ``root -n 2`` on ``L.a1^2 R.a1^2`` in ``product:(braid:6,braid:6)``:
  the root search makes and orders the table of 720^2 simples before its
  first candidate; about 3 to 4 s and 200 MB.
* H11: ``sss`` of query 12 of the hostile sweep with seed 7, a
  ``product:(braid:4,torus:5:3)`` word whose super summit set is drained
  to the cap of 100,000 elements and answers ``resource_limit`` after
  14 to 19 s.
* H12: ``tnum`` on ``product:(braid:8,braid:8)``, whose summit
  representatives are seldom rigid: ``L.a1^3000 R.a1 R.a2^-1`` (H12a) and
  the 10-letter mixed word drawn with ``random.Random(12)``, each letter
  ``<L|R>.a<randint(1, 7)>`` with exponent ±1 (H12b).  Their triples are
  read off the components, each non-rigid one from the summits of the
  first powers of its short summit; the summit of the whole word, powered
  to (28 + 28)^2 = 3136, took 2.6 s on H12b and more than 40 s on H12a.
* H13: ``tnum`` on ``braid:7`` words whose summit representatives are not
  rigid: a 20-token mixed word (H13a) and ``a1^20 a2^-20 a4 a5^-1 a6``
  (H13b).  Their triples come from the summits of the powers x^m of the
  representative x, up to the first rigid one or m = N = 21; the summit of
  x^(21^2) took 0.4 s on H13a and 4.1 s on H13b.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Address space each input may take, in MiB.
MEMORY_MB = 1024

H1 = {
    "H1a": ("braid:5", "a1 a2 a1 a3 a2 a1 a4 a1 a2 a1 a3 a4 a1 a2 a4 a2 a1 a3 a2 a4 a3 a2 a2 a3 "
                       "a2 a2 a3 a2 a1 a1 a3 a2"),
    "H1b": ("braid:5", "a1 a2 a1 a3 a2 a1 a4 a1 a2 a1 a3 a4 a3 a2 a1 a2 a3 a4 a3 a2 a1 a1 a4 a3 "
                       "a1 a3 a2 a1 a1 a2 a1 a1 a2 a1 a3 a1 a3 a2"),
    "H1c": ("braid:6", "a2 a3 a2 a4 a3 a2 a5 a4 a3 a2 a1 a1 a2 a3 a2 a4 a3 a2 a1 a5 a4 a3 a2 a1 "
                       "a1 a2 a1 a3 a2 a4 a3 a2 a5 a4 a3 a2 a1 a3 a2 a4 a5 a4 a3 a2 a1 a1 a2 a3 "
                       "a2 a4 a3 a5 a4 a3"),
    "H1d": ("braid:6", "a2 a3 a2 a4 a3 a2 a5 a4 a3 a2 a1 a1 a2 a3 a2 a4 a3 a2 a1 a5 a4 a3 a2 a1 "
                       "a1 a2 a1 a3 a2 a4 a3 a2 a5 a4 a3 a2 a1 a3 a2 a4 a5 a4 a3 a2 a1 a1 a2 a3 "
                       "a2 a4 a3 a5 a4 a3 a3 a2 a1 a5 a4 a3 a2 a1"),
}
H2 = {
    "H2a": ("product:(braid:4,braid:4)",
            "L.a2 L.a3 L.a2 L.a1 R.a1 R.a2 R.a1 R.a3 R.a2 R.a1 L.a1 L.a2 L.a3 L.a2 R.a1 R.a3 "
            "R.a2 R.a1 L.a2 L.a1 L.a3 R.a1 R.a2 R.a3 L.a3 L.a2 L.a1 L.a1 L.a2 L.a3"),
    "H2b": ("product:(braid:4,braid:4)",
            "L.a1 L.a2 L.a1 L.a3 L.a2 L.a1 R.a1 R.a2 R.a1 L.a1 L.a2 L.a1 L.a3 L.a2 R.a2 R.a1 "
            "R.a3 L.a2 L.a1 L.a3 R.a1 R.a3 R.a2 R.a1 R.a1 R.a2 R.a3 R.a3 R.a2"),
    "H2c": ("product:(braid:4,torus:5:3)",
            "L.a1 L.a2 L.a1 R.x R.x R.x R.x R.x L.a1 L.a2 L.a3 R.x R.x R.x R.x R.x L.a3 L.a2 "
            "R.y L.a2 L.a1 L.a3 L.a3 L.a2 L.a1 L.a1"),
    "H2d": ("product:(braid:4,torus:5:3)",
            "L.a1 L.a2 L.a1 L.a3 L.a2 L.a1 R.x L.a2 L.a3 L.a2 R.y R.y L.a2 L.a3 L.a2 R.x R.x "
            "R.x L.a2 R.y L.a2 L.a1 L.a3 R.x R.x R.x R.x L.a1 L.a3 L.a2"),
}
H3_CONJ = "a5^-1 a6^-1 a6^1 a4^1 a6^1 a2^1 a3^-1 a2^-1 a5^1 a5^1 a1^1 a4^-1"
H3_SSS = "a5^-1 a6^-1 a7^1 a7^-1 a7^1 a6^1 a2^1 a3^-1 a7^1 a4^1"
H3_WALK = "a2 a3 a4^-1 a4^-1 a2 a4 a4^-1 a5 a4^-1 a2"


def _rotated(word: str) -> str:
    first, *rest = word.split()
    return " ".join([*rest, first])


# id -> ("cli", argv) or ("parse", (descriptor, letters, seed))
INPUTS: dict[str, tuple[str, object]] = {
    **{k: ("cli", ["root", "--group", d, "-n", "2", w]) for k, (d, w) in {**H1, **H2}.items()},
    "H3a": ("cli", ["conj", "--group", "braid:7", H3_CONJ, _rotated(H3_CONJ)]),
    "H3b": ("cli", ["sss", "--group", "braid:8", H3_SSS]),
    "H3c": ("cli", ["conj", "--group", "braid:6", H3_WALK, " ".join(H3_WALK.split()[::-1])]),
    "H4a": ("parse", ("braid:4", 20_000, 0)),
    "H4b": ("parse", ("braid:4", 40_000, 0)),
    "H5a": ("cli", ["root", "--group", "braid:3", "-n", "2", "a1^20 a2^-20"]),
    "H5b": ("cli", ["root", "--group", "braid:3", "-n", "2", "a1^1000 a2^-1000"]),
    "H5c": ("cli", ["root", "--group", "braid:3", "-n", "2", "a1^600 a2^-600 a1^600 a2^-600"]),
    "H6a": ("cli", ["root", "--group", "braid:3", "-n", "2", "a1^9 a2^-12 a1^10 a2^-11"]),
    "H6b": ("cli", ["root", "--group", "braid:3", "-n", "2", "a1^12 a2^-9 a1^11 a2^-10"]),
    "H7": ("cli", ["root", "--group", "product:(braid:8,braid:8)", "-n", "2", "L.a1^2 R.a1^2"]),
    "H8a": ("cli", ["properpower", "--group", "braid:7",
                    "a2^-4 a3 a5^-2 a4^2 a2 a2^-1 a2^-2 a5^-2"]),
    "H8b": ("cli", ["root", "-n", "2", "--group", "braid:7",
                    "a3 a4^-1 a4^2 a2 a2^8 a6^2 a2^2 a3^2 a2^-2 a2^11"]),
    "H8c": ("cli", ["root", "-n", "3", "--group", "braid:6",
                    "a3^-1 a3^-1 a2^-1 a4 a2 a1 a4^-1 a1 a3^-1 a5 a3^29 a5^24 a3^10"]),
    "H8d": ("cli", ["properpower", "--group", "product:(braid:5,braid:5)",
                    "R.a3^-1 R.a1 L.a4^15 L.a1^-1"]),
    "H8e": ("cli", ["sss", "--group", "braid:7", "a6 a2^2 a3^-2"]),
    "H9a": ("cli", ["tnum", "--group", "braid:7", "a1^100000"]),
    "H9b": ("cli", ["genpower", "--group", "braid:7", "a1", "a1^100000"]),
    "H10": ("cli", ["root", "-n", "2", "--group", "product:(braid:6,braid:6)", "L.a1^2 R.a1^2"]),
    "H11": ("cli", ["sss", "--group", "product:(braid:4,torus:5:3)",
                    "R.y^-2 L.a2 R.y R.y L.a1^-23 L.a1^2 L.a1^-1 L.a3^28 R.y R.x^-1 L.a2 "
                    "R.x^2 R.x^2"]),
    "H12a": ("cli", ["tnum", "--group", "product:(braid:8,braid:8)", "L.a1^3000 R.a1 R.a2^-1"]),
    "H12b": ("cli", ["tnum", "--group", "product:(braid:8,braid:8)",
                     "R.a3 R.a2^-1 R.a4^-1 R.a6 L.a5^-1 L.a4^-1 R.a2^-1 L.a1 R.a6^-1 L.a1"]),
    "H13a": ("cli", ["tnum", "--group", "braid:7",
                     "a5^-2 a4^-1 a5^-2 a2^-1 a2^2 a5^-2 a5^-2 a3^3 a5^3 a4^-2 a5^-2 a2^-1 a3^-2 "
                     "a1^3 a4^3 a1^-2 a4 a5^3 a5^3 a2"]),
    "H13b": ("cli", ["tnum", "--group", "braid:7", "a1^20 a2^-20 a4 a5^-1 a6"]),
}

# Runs in the subprocess: argv[1] is the source tree, argv[2] the input as
# JSON and argv[3] the address-space cap in MiB.
_CHILD = r"""
import contextlib, io, json, random, resource, sys, time
sys.path.insert(0, sys.argv[1])
limit = int(sys.argv[3]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from garside import cli, structure_from_descriptor
kind, spec = json.loads(sys.argv[2])
code = 0
if kind == "cli":
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.run_command(spec)
    seconds = time.perf_counter() - start
    answer = out.getvalue().strip()
else:
    desc, letters, seed = spec
    S = structure_from_descriptor(desc)
    rng = random.Random(seed)
    n = len(S.atoms())
    word = " ".join(f"a{rng.randint(1, n)}^{rng.choice((1, -1))}" for _ in range(letters))
    start = time.perf_counter()
    g = cli.parse_word(S, word)
    seconds = time.perf_counter() - start
    answer = f"inf {g.inf}, canonical length {g.canonical_length}"
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "rss_mb": rss_mb, "exit": code, "answer": answer}))
"""


def run_child(spec, src: str, timeout: float) -> dict:
    """Run one input, ("cli", argv) or ("parse", ...), in a fresh interpreter.

    The report holds ``seconds``, ``rss_mb`` (the child's peak resident
    set size, import included), ``exit`` (the CLI exit code, 0 for a parse)
    and ``answer`` (stdout and stderr of the command); or ``timeout``
    for a child stopped after ``timeout`` seconds; or ``failed``, the last
    stderr line of a child that died.
    """
    try:
        result = subprocess.run(
            [sys.executable, "-c", _CHILD, src, json.dumps(spec), str(MEMORY_MB)],
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"timeout": True}
    if result.returncode != 0:
        return {"failed": (result.stderr.strip().splitlines() or ["(no output)"])[-1]}
    return json.loads(result.stdout)


def describe(report: dict) -> str:
    """The first line of a finished child's answer, after its exit code
    when that is not 0."""
    answer = report["answer"].splitlines()[0] if report["answer"] else "(no output)"
    if len(answer) > 100:
        answer = answer[:97] + "..."
    return answer if report["exit"] == 0 else f"exit {report['exit']}  {answer}"


def run_one(key: str, src: str, timeout: float) -> str:
    report = run_child(INPUTS[key], src, timeout)
    if "timeout" in report:
        return f"{key}  timeout after {timeout:g} s"
    if "failed" in report:
        return f"{key}  failed: {report['failed']}"
    return f"{key}  {report['seconds']:.3f} s  {report['rss_mb']:.1f} MB  {describe(report)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help=f"inputs to run, from {', '.join(INPUTS)}; all by default")
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree holding garside")
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per input")
    args = parser.parse_args(argv)
    unknown = [key for key in args.ids if key not in INPUTS]
    if unknown:
        parser.error(f"unknown input ids {unknown}")
    for key in args.ids or INPUTS:
        print(run_one(key, str(Path(args.src).resolve()), args.timeout), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
