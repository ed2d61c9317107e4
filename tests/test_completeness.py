"""A completeness audit of the conjugacy solvers on planted roots.

A positive answer carries a certificate that re-verifies; a `no` carries
none, and every reject path on the way (the degree and cycle-type
prefilters, the denominator test on t/n, the one root window, the early
exits of `summit(h, target)`, the walk of the super summit set) could give
a wrong one.  So the answer is planted: `scripts/completeness_audit.py`
makes, on a ball of each small family, the cases g = c^{-1} · h^n · c with
n in {2, 3}, and names the solvers that miss a case or give a certificate
that fails to verify by multiplication; here no case may have one.  The
product family has 11 conjugators c; a seeded sample of 5 keeps the audit
within a few seconds.  The script's exit code and miss lines are checked
with the solvers stubbed.

The exact solvers are audited on the same h and n, and on the identity and
Delta^k, k in -2..2, as edge words, with g = h^n and no conjugator:
`solve_root(g, n)` must return a root r with r^n = g, `solve_power(g, h)`
must answer n (0 when h is 1, the one exponent the identity is given) and,
on a structure with a unique-root exponent, `solve_generalized_power(g, h)`
must answer (n', m') with g^{n'} = h^{m'}.  On every element of each
ball, and of `braid:4`'s, the translation triple must equal the oracle's
from the one summit of h^(N^2).
"""

import itertools

import pytest

from garside import (
    Element,
    power,
    solve_generalized_power,
    solve_power,
    solve_root,
    structure_from_descriptor,
    translation_triple,
)

from .oracle import power_summit_triple
from .test_scripts import load_script

audit = load_script("completeness_audit")

# Family -> (conjugators sampled, None for all; number of planted cases (h, n, c)).
FAMILIES = {
    "braid:3": (None, 380),
    "torus:5:3": (None, 952),
    "product:(braid:2,braid:3)": (5, 1340),
    # Degenerate families: the one atom of braid:2 is Delta, so it has no
    # proper simples, and the two atoms of torus:2:2 weigh the same.
    "braid:2": (None, 4),
    "torus:2:2": (None, 84),
    "product:(torus:2:2,braid:2)": (None, 784),
}


@pytest.mark.parametrize("descriptor", FAMILIES)
def test_every_planted_root_is_found(descriptor, capsys):
    sample, expected = FAMILIES[descriptor]
    assert audit.audit(descriptor, sample) == 0
    assert capsys.readouterr().out == f"{descriptor}: {expected} cases, 0 misses\n"


@pytest.mark.parametrize("missed", [[], ["root", "conj"]])
def test_audit_script_exit_code(monkeypatch, capsys, missed):
    # The script's own run, with the solvers stubbed: exit 1 on any miss.
    monkeypatch.setattr(audit, "misses", lambda h, n, g: missed)
    assert audit.main(["braid:3"]) == (1 if missed else 0)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"braid:3: 380 cases, {380 if missed else 0} misses"
    assert len(lines) == 1 + (380 if missed else 0)
    assert all(line.endswith(": root, conj") for line in lines[1:])


@pytest.mark.parametrize("descriptor", FAMILIES)
def test_every_planted_exact_power_is_found(descriptor):
    S = structure_from_descriptor(descriptor)
    roots = [h for h in audit.ball(S, 1, 2) if not h.is_identity]
    edges = [Element(S, k, ()) for k in range(-2, 3)]
    roots += [e for e in edges if e not in roots]
    for h, n in itertools.product(roots, (2, 3)):
        g = power(h, n)

        answer = solve_root(g, n)
        assert answer.is_solution and power(answer.root, n) == g, (h, n)

        answer = solve_power(g, h)
        assert answer.n == (0 if h.is_identity else n), (h, n)

        if S.unique_root_exponent is not None:
            answer = solve_generalized_power(g, h)
            assert answer.is_solution, (h, n)
            assert power(g, answer.n) == power(h, answer.m), (h, n)


@pytest.mark.parametrize("descriptor", [*FAMILIES, "braid:4"])
def test_triple_on_the_ball_matches_the_power_summit_oracle(descriptor):
    # The rigid read-off and the power of a non-rigid representative, on
    # every element of the ball the audit plants its roots from.
    S = structure_from_descriptor(descriptor)
    for h in audit.ball(S, 1, 2):
        assert translation_triple(h) == power_summit_triple(h), h
