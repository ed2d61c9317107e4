"""Class invariants and the solvers' invariant prefilters.

`degree` (the homomorphism to Z^k from the atom weights) and
`permutations` (a braid component's image in S_n) are checked as
homomorphisms against atom words read with weights and permutation
arithmetic written here from scratch, and `class_invariant` as a
conjugacy invariant.  The S_n root table is checked against a brute force
over S_k.  `are_conjugate` and the root search, which reject on these
invariants first, are checked against `oracle.invariant_free_conjugator` and
`oracle.unpruned_root_search`, which never read them, and against
`oracle.windowed_root_search`.  Every family of `test_repair_paths` is
covered, plus `braid:2` and `braid:5`.
"""

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from garside import (
    BraidStructure,
    Element,
    ProductStructure,
    TorusStructure,
    are_conjugate,
    class_invariant,
    degree,
    invert,
    multiply,
    permutations,
    power,
    problems,
    solve_generalized_power,
    solve_power,
    solve_proper_power_conjugacy,
    structure_from_descriptor,
    summit,
    translation_number,
    translation_triple,
)
from garside.cli import parse_word

from .conftest import assert_conjugate_by, element_from_letters, perm_inv, perm_len, perm_mul
from .oracle import invariant_free_conjugator, unpruned_root_search, windowed_root_search
from .test_repair_paths import STRUCTURES, normal_forms_of

FAMILIES = [structure_from_descriptor("braid:2"), structure_from_descriptor("braid:5"), *STRUCTURES]


def leaves(S):
    """The braid and torus components of S, left to right."""
    if isinstance(S, ProductStructure):
        return leaves(S.left) + leaves(S.right)
    return [S]


def leaf_atoms(S):
    """(component index, atom index in that component) for each atom of S."""
    if isinstance(S, ProductStructure):
        offset = len(leaves(S.left))
        return leaf_atoms(S.left) + [(c + offset, j) for c, j in leaf_atoms(S.right)]
    return [(0, j) for j in range(len(S.atoms()))]


def atom_weight(leaf, j):
    if isinstance(leaf, BraidStructure):
        return 1
    assert isinstance(leaf, TorusStructure)
    return leaf.exp_y if j == 0 else leaf.exp_x


def delta_weight(leaf):
    if isinstance(leaf, BraidStructure):
        return leaf.n * (leaf.n - 1) // 2
    return leaf.exp_x * leaf.exp_y


def transposition(n, j):
    p = list(range(n))
    p[j], p[j + 1] = p[j + 1], p[j]
    return tuple(p)


def expected_invariants(S, letters, shift):
    """Degree and permutations of Delta^shift times the signed atom letters."""
    parts = leaves(S)
    where = leaf_atoms(S)
    deg = [shift * delta_weight(leaf) for leaf in parts]
    perms = [
        tuple(range(leaf.n))[::-1 if shift % 2 else 1] if isinstance(leaf, BraidStructure) else None
        for leaf in parts
    ]
    for index, sign in letters:
        c, j = where[index]
        deg[c] += sign * atom_weight(parts[c], j)
        if perms[c] is not None:
            perms[c] = perm_mul(perms[c], transposition(parts[c].n, j))
    return tuple(deg), tuple(perms)


def lettered(S):
    """(letters, shift, element) for short signed atom words."""
    letters = st.lists(
        st.tuples(st.integers(0, len(S.atoms()) - 1), st.sampled_from((1, -1))), max_size=8
    )
    return st.builds(
        lambda ls, k: (ls, k, element_from_letters(S, ls, k)), letters, st.integers(-3, 3)
    )


def pairs_of(S):
    return st.tuples(lettered(S), lettered(S))


def componentwise(f, a, b):
    return tuple(None if p is None else f(p, q) for p, q in zip(a, b))


@settings(max_examples=150, deadline=None)
@given(pair=st.sampled_from(FAMILIES).flatmap(pairs_of))
def test_degree_and_permutations_are_homomorphisms(pair):
    (letters_g, k_g, g), (letters_h, k_h, h) = pair
    S = g.structure
    deg_g, perms_g = expected_invariants(S, letters_g, k_g)
    deg_h, perms_h = expected_invariants(S, letters_h, k_h)
    assert (degree(g), permutations(g)) == (deg_g, perms_g)
    gh = multiply(g, h)
    assert degree(gh) == tuple(a + b for a, b in zip(deg_g, deg_h))
    assert permutations(gh) == componentwise(perm_mul, perms_g, perms_h)
    assert degree(invert(g)) == tuple(-d for d in deg_g)
    assert permutations(invert(g)) == tuple(None if p is None else perm_inv(p) for p in perms_g)


@pytest.mark.parametrize("S", FAMILIES, ids=lambda S: S.descriptor())
def test_invariants_of_delta(S):
    delta = Element(S, 1, ())
    assert degree(delta) == S.degree(S.delta()) == expected_invariants(S, [], 1)[0]
    assert permutations(delta) == expected_invariants(S, [], 1)[1]
    assert degree(Element(S, -2, ())) == expected_invariants(S, [], -2)[0]
    for i in range(len(S.atoms())):
        assert S.degree(S.atom_simple(i)) == expected_invariants(S, [(i, 1)], 0)[0]


@settings(max_examples=150, deadline=None)
@given(pair=st.sampled_from(FAMILIES).flatmap(
    lambda S: st.tuples(normal_forms_of(S, 6), normal_forms_of(S, 4))))
def test_class_invariant_is_a_conjugacy_invariant(pair):
    g, x = pair
    assert class_invariant(multiply(multiply(invert(x), g), x)) == class_invariant(g)


def brute_cycle_type(p):
    seen, lengths = set(), []
    for start in range(len(p)):
        if start in seen:
            continue
        i, length = start, 0
        while i not in seen:
            seen.add(i)
            i = p[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def brute_power_types(k, n):
    """(parity of σ, cycle type of σ^n) -> cycle types of σ, over all of S_k."""
    out = {}
    for sigma in itertools.permutations(range(k)):
        p = tuple(range(k))
        for _ in range(n):
            p = perm_mul(p, sigma)
        key = (perm_len(sigma) % 2, brute_cycle_type(p))
        out.setdefault(key, set()).add(brute_cycle_type(sigma))
    return out


@pytest.mark.parametrize("k", range(1, 7))
def test_power_table_matches_brute_force_over_s_k(k):
    period = math.lcm(*range(1, k + 1))
    partitions = {brute_cycle_type(p) for p in itertools.permutations(range(k))}
    for n in range(1, 7):
        expected = brute_power_types(k, n)
        for parity in (0, 1):
            for cycles in partitions:
                roots = expected.get((parity, cycles), set())
                assert problems._root_types(k, n, parity, cycles) == roots
                assert problems._root_types(k, n % period, parity, cycles) == roots


def conjugacy_pairs_of(S):
    """(g, h), h random or a conjugate of g, both small."""
    small = normal_forms_of(S, max_raw=3, max_inf=1)
    planted = st.builds(lambda g, x: (g, multiply(multiply(invert(x), g), x)), small, small)
    return st.one_of(st.tuples(small, small), planted)


@settings(max_examples=150, deadline=None)
@given(pair=st.sampled_from(FAMILIES).flatmap(conjugacy_pairs_of))
def test_conjugator_matches_invariant_free_reference(pair):
    g, h = pair
    sd, other = summit(g), summit(h)
    assume((sd.inf_s, sd.sup_s) == (other.inf_s, other.sup_s))
    w = are_conjugate(g, h)
    assert w == sd.conjugator_to(h) == invariant_free_conjugator(sd, h)
    if w is not None:
        assert_conjugate_by(w, g, h)


def root_queries_of(S):
    """(g, n), g random or planted as x^-1 · h^n · x; one simple where there
    are over 100 (braid:5 and the nested product)."""
    max_raw = 1 if len(S.enumerate_simples()) > 100 else 2
    small = normal_forms_of(S, max_raw=max_raw, max_inf=1)
    degree_n = st.sampled_from((2, 3))
    planted = st.builds(
        lambda h, x, n: (multiply(multiply(invert(x), power(h, n)), x), n), small, small, degree_n
    )
    return st.one_of(st.tuples(small, degree_n), planted)


@settings(max_examples=120, deadline=None)
@given(query=st.sampled_from(FAMILIES).flatmap(root_queries_of))
def test_pruned_root_search_matches_unpruned_and_windowed(query):
    g, n = query
    triple, sd = translation_triple(g), summit(g)
    answer = problems._root_search(triple, sd, n)
    for reference in (unpruned_root_search(triple, sd, n), windowed_root_search(triple, sd, n)):
        assert (answer.is_solution, answer.n, answer.root, answer.witness) == (
            reference.is_solution, reference.n, reference.root, reference.witness
        )


def test_proper_power_tries_only_divisors_of_the_degree(monkeypatch):
    # deg(D^300007) = 3 · 300007 in braid:3, and 300007 is prime.
    S = structure_from_descriptor("braid:3")
    g = parse_word(S, "D^300007")
    degrees = []
    original = problems._root_search

    def counting(triple, sd, n):
        degrees.append(n)
        return original(triple, sd, n)

    monkeypatch.setattr(problems, "_root_search", counting)
    answer = solve_proper_power_conjugacy(g)
    assert (answer.n, answer.root) == (300007, Element(S, 1, ()))
    assert degrees == [3, 300007]


@pytest.mark.parametrize("up_to_conjugacy", [False, True])
def test_power_solvers_skip_powers_of_the_wrong_degree(monkeypatch, up_to_conjugacy):
    # t_D(g) = 3 · t_D(h), but deg(g) = 5 is no multiple of deg(h) = 2.
    S = structure_from_descriptor("braid:3")
    g, h = parse_word(S, "D a1^2"), parse_word(S, "a1 a2")
    assert translation_number(g) == 3 * translation_number(h)
    powers = []
    original = problems.power

    def counting(x, n):
        powers.append(n)
        return original(x, n)

    monkeypatch.setattr(problems, "power", counting)
    assert not solve_power(g, h, up_to_conjugacy).is_solution
    assert not solve_generalized_power(g, h, up_to_conjugacy).is_solution
    assert powers == []
