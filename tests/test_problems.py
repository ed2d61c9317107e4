"""Power, root, proper-power and generalized-power solvers with certificates."""

import random

import pytest

from garside import (
    BraidStructure,
    Element,
    ResourceLimitError,
    StructureMismatchError,
    TorusStructure,
    UnsupportedStructureError,
    are_conjugate,
    invert,
    multiply,
    power,
    solve_generalized_power,
    solve_power,
    solve_proper_power_conjugacy,
    solve_root,
    solve_root_conjugacy,
)
from garside import conjugacy, problems, translation
from garside.cli import parse_word
from garside.problems import _divisors

from .conftest import assert_conjugate_by, random_word_element

B3 = BraidStructure(3)
B4 = BraidStructure(4)
T53 = TorusStructure(5, 3)


def test_solve_power_fixtures():
    assert solve_power(Element(B3, 2, ()), Element(B3, 1, ())).n == 2
    assert solve_power(parse_word(B3, "a1^4"), parse_word(B3, "a1^2")).n == 2
    assert not solve_power(parse_word(B3, "a1"), parse_word(B3, "a2")).is_solution
    answer = solve_power(parse_word(B3, "a1"), parse_word(B3, "a2"), up_to_conjugacy=True)
    assert answer.n == 1
    assert_conjugate_by(answer.witness, parse_word(B3, "a2"), parse_word(B3, "a1"))


def test_solve_power_identity_edges():
    g = Element(B3, 0, ())
    h = parse_word(B3, "a1")
    assert solve_power(g, h).n == 0
    assert solve_power(g, g).n == 0
    assert not solve_power(h, g).is_solution
    assert not solve_power(h, g, up_to_conjugacy=True).is_solution
    # A plain-equality answer carries no witness; one up to conjugacy does.
    for other in (g, h, Element(B3, 1, ())):
        assert solve_power(g, other).witness is None
        answer = solve_power(g, other, up_to_conjugacy=True)
        assert answer.n == 0
        assert_conjugate_by(answer.witness, power(other, 0), g)


def test_solve_power_negative_exponent():
    g = parse_word(B3, "a1^-3")
    answer = solve_power(g, parse_word(B3, "a1"))
    assert answer.n == -3
    assert power(parse_word(B3, "a1"), -3) == g


def test_solve_root_conjugacy_fixtures():
    answer = solve_root_conjugacy(Element(B3, 2, ()), 2)
    assert answer.root == Element(B3, 1, ())
    assert_conjugate_by(answer.witness, power(answer.root, 2), Element(B3, 2, ()))

    answer = solve_root_conjugacy(Element(B3, 2, ()), 3)
    assert answer.is_solution
    assert power(answer.root, 3).is_identity is False
    assert_conjugate_by(answer.witness, power(answer.root, 3), Element(B3, 2, ()))

    assert not solve_root_conjugacy(parse_word(B3, "a1"), 2).is_solution
    assert solve_root_conjugacy(parse_word(B3, "a1"), 1).root == parse_word(B3, "a1")
    with pytest.raises(ValueError):
        solve_root_conjugacy(parse_word(B3, "a1"), 0)


def test_solve_root_of_identity():
    # Torsion-freeness makes the identity its own unique n-th root.
    answer = solve_root_conjugacy(Element(B3, 0, ()), 2)
    assert answer.is_solution
    assert answer.root == Element(B3, 0, ())


def test_solve_root_exact_wrapper():
    g = power(parse_word(B3, "a1 a2"), 3)  # Delta^2
    answer = solve_root(g, 3)
    assert answer.is_solution
    assert power(answer.root, 3) == g
    # deg(a1) = 1 is odd, so a1 has no square root, not even up to conjugacy.
    answer = solve_root(parse_word(B3, "a1"), 2)
    assert not answer.is_solution
    assert answer.root is None and answer.witness is None


def test_pair_queries_reject_elements_of_two_structures():
    g, h = parse_word(B3, "a1"), parse_word(B4, "a1")
    for query in (solve_power, solve_generalized_power, are_conjugate):
        with pytest.raises(StructureMismatchError):
            query(g, h)


def test_solve_proper_power_fixtures():
    answer = solve_proper_power_conjugacy(Element(B3, 2, ()))
    assert (answer.root, answer.n) == (Element(B3, 1, ()), 2)

    assert not solve_proper_power_conjugacy(parse_word(B3, "a1")).is_solution
    assert not solve_proper_power_conjugacy(Element(B3, 0, ())).is_solution

    answer = solve_proper_power_conjugacy(parse_word(T53, "x^2"))
    assert (answer.root, answer.n) == (parse_word(T53, "x"), 2)


def test_solve_generalized_power_fixtures():
    g = power(parse_word(B3, "a1 a2"), 2)
    h = power(parse_word(B3, "a1 a2"), 3)
    answer = solve_generalized_power(g, h)
    assert (answer.n, answer.m) == (18, 12)
    assert power(g, 18) == power(h, 12)

    assert not solve_generalized_power(parse_word(B3, "a1"), parse_word(B3, "a2")).is_solution
    answer = solve_generalized_power(parse_word(B3, "a1"), parse_word(B3, "a2"), up_to_conjugacy=True)
    assert (answer.n, answer.m) == (6, 6)
    assert_conjugate_by(answer.witness, power(parse_word(B3, "a1"), 6), power(parse_word(B3, "a2"), 6))

    answer = solve_generalized_power(Element(B3, 1, ()), Element(B3, 3, ()))
    assert (answer.n, answer.m) == (18, 6)

    # g^n = 1 with n != 0 only for g = 1, so (1, 1) answers two identities
    # and nothing answers one.
    one, a1 = Element(B3, 0, ()), parse_word(B3, "a1")
    answer = solve_generalized_power(one, one)
    assert (answer.n, answer.m, answer.witness) == (1, 1, None)
    answer = solve_generalized_power(one, one, up_to_conjugacy=True)
    assert (answer.n, answer.m) == (1, 1)
    assert answer.witness == one
    for g, h in ((one, a1), (a1, one)):
        for up_to_conjugacy in (False, True):
            assert not solve_generalized_power(g, h, up_to_conjugacy).is_solution


def test_generalized_power_unsupported_structure():
    with pytest.raises(UnsupportedStructureError):
        solve_generalized_power(parse_word(T53, "x"), parse_word(T53, "y"))


def test_power_conjugacy_round_trip():
    rng = random.Random(51)
    for S in (B3, T53):
        for _ in range(15):
            h = random_word_element(S, rng, max_letters=3, max_inf=1)
            while h.is_identity:
                h = random_word_element(S, rng, max_letters=3, max_inf=1)
            x = random_word_element(S, rng, max_letters=3, max_inf=1)
            n = rng.choice((2, 3, 4))
            g = multiply(multiply(invert(x), power(h, n)), x)
            answer = solve_power(g, h, up_to_conjugacy=True)
            assert answer.is_solution and abs(answer.n) == n
            assert_conjugate_by(answer.witness, power(h, answer.n), g)


def test_proper_power_round_trip():
    rng = random.Random(53)
    for _ in range(8):
        h = random_word_element(B3, rng, max_letters=2, max_inf=1)
        while h.is_identity:
            h = random_word_element(B3, rng, max_letters=2, max_inf=1)
        n = rng.choice((2, 3))
        g = power(h, n)
        answer = solve_proper_power_conjugacy(g)
        assert answer.is_solution and answer.n >= 2
        assert_conjugate_by(answer.witness, power(answer.root, answer.n), g)


def test_generalized_power_commuting_round_trip():
    rng = random.Random(59)
    for _ in range(10):
        w = random_word_element(B3, rng, max_letters=2, max_inf=1)
        while w.is_identity:
            w = random_word_element(B3, rng, max_letters=2, max_inf=1)
        a, b = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        answer = solve_generalized_power(power(w, a), power(w, b))
        assert answer.is_solution
        assert power(power(w, a), answer.n) == power(power(w, b), answer.m)


def test_power_no_solution_brute_cross_check():
    rng = random.Random(61)
    checked = 0
    while checked < 6:
        g = random_word_element(B3, rng, max_letters=2, max_inf=1)
        h = random_word_element(B3, rng, max_letters=2, max_inf=1)
        if g.is_identity or h.is_identity:
            continue
        answer = solve_power(g, h, up_to_conjugacy=True)
        if answer.is_solution:
            continue
        for n in range(-8, 9):
            assert are_conjugate(power(h, n), g) is None
        checked += 1


def _edge_words(S):
    """The identity, D, D^-1, D^2, then the atoms, their inverses, a_i a_j^-1
    for i != j and a_i^2, as elements of S."""
    atoms = [atom.name for atom in S.atoms()]
    words = ["", "D", "D^-1", "D^2", *atoms, *(f"{a}^-1" for a in atoms),
             *(f"{a} {b}^-1" for a in atoms for b in atoms if a != b),
             *(f"{a}^2" for a in atoms)]
    return [parse_word(S, w) for w in words]


def _matches(x, y, up_to_conjugacy):
    return are_conjugate(x, y) is not None if up_to_conjugacy else x == y


@pytest.mark.parametrize("descriptor", ["braid:3", "product:(braid:2,braid:3)"])
def test_power_solvers_brute_cross_check_on_edge_words(descriptor):
    # Every pair of edge words, both solvers, both modes, against plain
    # powers and `are_conjugate`: a brute solution over |n| <= 12 (power)
    # or 1 <= n <= 6, 1 <= |m| <= 6 (generalized power) must be found, and
    # every solution found must verify.
    from garside import structure_from_descriptor

    S = structure_from_descriptor(descriptor)
    words = _edge_words(S)
    powers = {(w, n): power(w, n) for w in words for n in range(-12, 13)}
    for up_to_conjugacy in (False, True):
        for g in words:
            for h in words:
                answer = solve_power(g, h, up_to_conjugacy)
                brute = any(_matches(powers[h, n], g, up_to_conjugacy) for n in range(-12, 13))
                assert answer.is_solution == brute, (g, h, up_to_conjugacy)
                if brute:
                    x = powers[h, answer.n]
                    if up_to_conjugacy:
                        assert_conjugate_by(answer.witness, x, g)
                    else:
                        assert answer.witness is None and x == g

                answer = solve_generalized_power(g, h, up_to_conjugacy)
                if answer.is_solution:
                    x, y = power(g, answer.n), power(h, answer.m)
                    if up_to_conjugacy:
                        assert_conjugate_by(answer.witness, x, y)
                    else:
                        assert answer.witness is None and x == y
                else:
                    assert not any(_matches(powers[g, n], powers[h, m], up_to_conjugacy)
                                   for n in range(1, 7) for m in range(-6, 7) if m)


def test_no_power_is_formed_when_the_degree_rules_out_every_exponent(monkeypatch):
    # deg(a1 a2^-1) = 0 and deg(a1) = 1, so neither sign passes either
    # solver's degree test; t_D(a1 a2^-1) / t_D(a1) = 2 is an integer, so
    # only the degree rejects in `solve_power`.
    calls = []
    monkeypatch.setattr(problems, "power", lambda *args: calls.append(args) or power(*args))
    g, h = parse_word(B3, "a1 a2^-1"), parse_word(B3, "a1")
    assert translation.translation_number(g) / translation.translation_number(h) == 2
    for up_to_conjugacy in (False, True):
        assert not solve_power(g, h, up_to_conjugacy).is_solution
        assert not solve_generalized_power(g, h, up_to_conjugacy).is_solution
    assert calls == []


def test_generalized_power_on_product_of_braids():
    # The only other shipped family with a unique-root certificate.
    from garside import ProductStructure

    P = ProductStructure(B3, B3)
    assert P.unique_root_exponent == 6
    w = parse_word(P, "L.a1 R.a2")
    answer = solve_generalized_power(power(w, 2), power(w, 3))
    assert answer.is_solution
    assert power(power(w, 2), answer.n) == power(power(w, 3), answer.m)


def test_root_search_resource_limit_is_distinct(monkeypatch):
    monkeypatch.setattr(problems, "DEFAULT_CANDIDATE_CAP", 0)
    with pytest.raises(ResourceLimitError, match="exceeded 0 candidates"):
        solve_root_conjugacy(Element(B3, 2, ()), 3)


def test_proper_power_search_computes_class_data_once(monkeypatch):
    # Walks of the super summit set started, not `_sss_closure` calls: a
    # root candidate advances the one walk of g's summit data, and only as
    # far as it needs.
    calls = {"translation_triple": 0, "_sss_walk": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name, fn in (("translation_triple", translation.translation_triple),
                     ("_sss_walk", conjugacy._sss_walk)):
        for module in (translation, conjugacy, problems):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    reached = []
    original = conjugacy.SummitData._reaches
    monkeypatch.setattr(conjugacy.SummitData, "_reaches",
                        lambda sd, h: reached.append(h) or original(sd, h))
    g = parse_word(B3, "a1^5 a2^3")
    assert not solve_proper_power_conjugacy(g).is_solution
    assert calls["translation_triple"] == 1
    assert calls["_sss_walk"] <= 1
    # Six root candidates of this word reach its summit invariants, all on one walk.
    calls["translation_triple"] = 0
    g = parse_word(B3, "a2^3 a1^-2 a2")
    assert not solve_proper_power_conjugacy(g).is_solution
    assert calls["translation_triple"] == 1
    assert len(reached) == 6
    assert calls["_sss_walk"] == 1


def test_root_search_builds_super_summit_set_only_when_needed(monkeypatch):
    # Both elements have a two-element super summit set, above this cap.
    monkeypatch.setattr(conjugacy, "DEFAULT_SSS_CAP", 1)
    # No candidate square reaches the summit invariants of a1.
    assert not solve_root_conjugacy(parse_word(B3, "a1"), 2).is_solution
    # The candidate a1 does reach those of a1^2, so the set is built and trips the cap.
    with pytest.raises(ResourceLimitError, match="cap of 1"):
        solve_root_conjugacy(parse_word(B3, "a1^2"), 2)


def test_divisors_yield_a_small_divisor_at_once():
    # A list of every divisor would first scan to sqrt(3·10^18).
    m = 3 * 10**18
    assert next(_divisors(m, m)) == 2


def test_divisors_match_brute_force():
    for m in range(1, 400):
        for bound in range(60):
            assert list(_divisors(m, bound)) == [n for n in range(2, bound + 1) if m % n == 0]
