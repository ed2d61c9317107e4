#!/usr/bin/env python3
"""Audit the conjugacy solvers on every planted root of a small ball.

    python3 scripts/completeness_audit.py FAMILY [FAMILY ...]

A positive answer carries a certificate that re-verifies; a `no` carries
none, so the audit plants the answer.  For every non-identity normal form h
with |inf| <= 1 and at most 2 factors, each n in {2, 3} and every c with
inf 0 and at most 1 factor, g = c^{-1} · h^n · c is conjugate to an n-th
power, and each solver asked about g must answer `solution` with a
certificate that verifies by multiplication: `solve_root_conjugacy(g, n)`,
`solve_proper_power_conjugacy(g)`, `solve_power(g, h, up_to_conjugacy=True)`,
`are_conjugate(h^n, g)` and, on a structure with a unique-root exponent,
`solve_generalized_power(g, h, True)`.

One line is printed per family, with its case and miss counts, and one more
per missed case, naming the solvers that missed it.  The exit code is 1 when
any case is missed.  `tests/test_completeness.py` runs the same cases, with
a seeded sample of the conjugators on the product family.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from garside import (  # noqa: E402
    Element,
    are_conjugate,
    invert,
    multiply,
    normalize,
    power,
    solve_generalized_power,
    solve_power,
    solve_proper_power_conjugacy,
    solve_root_conjugacy,
    structure_from_descriptor,
)


def ball(S, max_inf, max_factors):
    """Every normal form with |inf| <= max_inf and at most max_factors factors."""
    proper = [s for s in S.enumerate_simples() if 0 < s.atom_norm < S.delta_norm()]
    out = []
    for k in range(max_factors + 1):
        for factors in itertools.product(proper, repeat=k):
            if normalize(S, 0, factors).factors == factors:
                out.extend(Element(S, r, factors) for r in range(-max_inf, max_inf + 1))
    return out


def planted_cases(S, sample=None):
    """(h, n, c, g = c^{-1} · h^n · c) for every root h, n in {2, 3} and
    conjugator c of the ball; with a `sample`, only that many conjugators,
    drawn with the structure's descriptor as seed."""
    roots = [h for h in ball(S, 1, 2) if not h.is_identity]
    conjugators = ball(S, 0, 1)
    if sample is not None:
        conjugators = random.Random(S.descriptor()).sample(conjugators, sample)
    for h, n in itertools.product(roots, (2, 3)):
        hn = power(h, n)
        for c in conjugators:
            yield h, n, c, multiply(multiply(invert(c), hn), c)


def conjugates(w, x, y) -> bool:
    """w^{-1} · x · w = y, by direct multiplication."""
    return multiply(multiply(invert(w), x), w) == y


def misses(h, n, g) -> list[str]:
    """The solvers that miss the planted g ~ h^n, or whose certificate fails."""
    hn = power(h, n)
    root = solve_root_conjugacy(g, n)
    proper = solve_proper_power_conjugacy(g)
    exponent = solve_power(g, h, up_to_conjugacy=True)
    witness = are_conjugate(hn, g)
    found = {
        "root": root.is_solution and conjugates(root.witness, power(root.root, n), g),
        "properpower": proper.is_solution and proper.n >= 2
        and conjugates(proper.witness, power(proper.root, proper.n), g),
        "power": exponent.is_solution and conjugates(exponent.witness, power(h, exponent.n), g),
        "conj": witness is not None and conjugates(witness, hn, g),
    }
    if g.structure.unique_root_exponent is not None:
        answer = solve_generalized_power(g, h, True)
        found["genpower"] = answer.is_solution and conjugates(
            answer.witness, power(g, answer.n), power(h, answer.m))
    return [name for name, ok in found.items() if not ok]


def audit(descriptor, sample=None) -> int:
    """Print one family's case and miss counts, then one line per missed
    case; return the number of misses.  `sample` is as in `planted_cases`."""
    cases, missed = 0, []
    for h, n, c, g in planted_cases(structure_from_descriptor(descriptor), sample):
        cases += 1
        failed = misses(h, n, g)
        if failed:
            missed.append(f"  miss: h={h} n={n} c={c}: {', '.join(failed)}")
    print(f"{descriptor}: {cases} cases, {len(missed)} misses", *missed, sep="\n", flush=True)
    return len(missed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("families", nargs="+", metavar="FAMILY",
                        help="structure descriptors, e.g. braid:4")
    args = parser.parse_args(argv)
    return 1 if sum(audit(descriptor) for descriptor in args.families) else 0


if __name__ == "__main__":
    sys.exit(main())
