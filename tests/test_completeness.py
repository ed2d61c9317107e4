"""A completeness audit of the conjugacy solvers on planted roots.

A positive answer carries a certificate that re-verifies; a `no` carries
none, and every reject path on the way (the degree and cycle-type
prefilters, the denominator test on t/n, the one root window, the early
exits of `summit(h, target)`, the walk of the super summit set) could give
a wrong one.  So on a whole ball of each small family the answer is known
in advance: for every non-identity normal form h with |inf| <= 1 and at
most 2 factors, each n in {2, 3} and every c with inf 0 and at most 1
factor, g = c^{-1} · h^n · c is conjugate to an n-th power.  Each solver
asked about g must then answer `solution`, and its certificate must verify
by multiplication: `solve_root_conjugacy(g, n)`,
`solve_proper_power_conjugacy(g)`, `solve_power(g, h, up_to_conjugacy=True)`,
`are_conjugate(h^n, g)` and, on a structure with a unique-root exponent,
`solve_generalized_power(g, h, True)`.  The product family has 11
conjugators c; a seeded sample of 5 keeps the audit within a few seconds.

The exact solvers are audited on the same h and n, and on the identity and
Delta^k, k in -2..2, as edge words, with g = h^n and no conjugator:
`solve_root(g, n)` must return a root r with r^n = g, `solve_power(g, h)`
must answer n (0 when h is 1, the one exponent the identity is given) and,
on a structure with a unique-root exponent, `solve_generalized_power(g, h)`
must answer (n', m') with g^{n'} = h^{m'}.
"""

import itertools
import random

import pytest

from garside import (
    Element,
    are_conjugate,
    delta_power_element,
    invert,
    multiply,
    normalize,
    power,
    solve_generalized_power,
    solve_power,
    solve_proper_power_conjugacy,
    solve_root,
    solve_root_conjugacy,
    structure_from_descriptor,
)

from .conftest import assert_conjugate_by

# Family -> (conjugators sampled, None for all; number of planted cases (h, n, c)).
FAMILIES = {
    "braid:3": (None, 380),
    "torus:5:3": (None, 952),
    "product:(braid:2,braid:3)": (5, 1340),
}


def ball(S, max_inf, max_factors):
    """Every normal form with |inf| <= max_inf and at most max_factors factors."""
    proper = [s for s in S.enumerate_simples() if 0 < s.atom_norm < S.delta_norm()]
    out = []
    for k in range(max_factors + 1):
        for factors in itertools.product(proper, repeat=k):
            if normalize(S, 0, factors).factors == factors:
                out.extend(Element(S, r, factors) for r in range(-max_inf, max_inf + 1))
    return out


@pytest.mark.parametrize("descriptor", FAMILIES)
def test_every_planted_root_is_found(descriptor):
    S = structure_from_descriptor(descriptor)
    roots = [h for h in ball(S, 1, 2) if not h.is_identity]
    conjugators = ball(S, 0, 1)
    sample, expected = FAMILIES[descriptor]
    if sample is not None:
        conjugators = random.Random(descriptor).sample(conjugators, sample)
    cases = 0
    for h, n in itertools.product(roots, (2, 3)):
        hn = power(h, n)
        for c in conjugators:
            g = multiply(multiply(invert(c), hn), c)
            cases += 1

            answer = solve_root_conjugacy(g, n)
            assert answer.is_solution, (h, n, c)
            assert_conjugate_by(answer.witness, power(answer.root, n), g)

            answer = solve_proper_power_conjugacy(g)
            assert answer.is_solution and answer.n >= 2, (h, n, c)
            assert_conjugate_by(answer.witness, power(answer.root, answer.n), g)

            answer = solve_power(g, h, up_to_conjugacy=True)
            assert answer.is_solution, (h, n, c)
            assert_conjugate_by(answer.witness, power(h, answer.n), g)

            witness = are_conjugate(hn, g)
            assert witness is not None, (h, n, c)
            assert_conjugate_by(witness, hn, g)

            if S.unique_root_exponent is not None:
                answer = solve_generalized_power(g, h, True)
                assert answer.is_solution, (h, n, c)
                assert_conjugate_by(answer.witness, power(g, answer.n), power(h, answer.m))
    assert cases == expected


@pytest.mark.parametrize("descriptor", FAMILIES)
def test_every_planted_exact_power_is_found(descriptor):
    S = structure_from_descriptor(descriptor)
    roots = [h for h in ball(S, 1, 2) if not h.is_identity]
    edges = [delta_power_element(S, k) for k in range(-2, 3)]
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
