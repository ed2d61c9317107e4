"""Brute-force oracles: word lengths by BFS, summit bounds, brackets."""

import random
from fractions import Fraction

from garside import (
    Element,
    braid_structure,
    delta_power_element,
    identity_element,
    product_structure,
    summit,
    torus_structure,
    translation_triple,
    word_length,
)
from garside.cli import parse_word

from .conftest import random_word_element
from .oracle import (
    Bracket,
    bfs_word_length,
    brute_summit_inf,
    estimate_translation,
    recursive_factor_sequences,
)

B3 = braid_structure(3)
T53 = torus_structure(5, 3)
T43 = torus_structure(4, 3)


def test_bfs_word_length_fixtures():
    assert bfs_word_length(parse_word(B3, "a1 a2")) == 1
    assert bfs_word_length(parse_word(torus_structure(3, 2), "x y")) == 2
    assert bfs_word_length(identity_element(B3)) == 0
    assert bfs_word_length(delta_power_element(B3, 5), cap=3) is None


def test_bfs_matches_case_formula_exhaustive_b3():
    for inf in (-1, 0, 1):
        for length in (0, 1, 2):
            for factors in recursive_factor_sequences(B3, length):
                g = Element(B3, inf, factors)
                assert bfs_word_length(g, cap=8) == word_length(g)


def test_bfs_matches_case_formula_exhaustive_torus43():
    for inf in range(-2, 3):
        for length in (0, 1, 2):
            for factors in recursive_factor_sequences(T43, length):
                g = Element(T43, inf, factors)
                assert bfs_word_length(g, cap=8) == word_length(g)


def test_brute_summit_inf_fixtures():
    assert brute_summit_inf(parse_word(B3, "a1 a1 a2"), 6) == 1
    for k in (-2, 0, 3):
        assert brute_summit_inf(delta_power_element(B3, k), 1) == k
    assert brute_summit_inf(parse_word(T53, "x"), 6) == 0


def test_brute_summit_never_exceeds_summit():
    rng = random.Random(71)
    for S in (B3, T43):
        for _ in range(25):
            g = random_word_element(S, rng, max_letters=4, max_inf=1)
            brute = brute_summit_inf(g, 4)
            assert brute <= summit(g).inf_s


def test_estimate_translation_fixtures():
    br = estimate_translation(parse_word(T53, "x"), 25)
    assert (br.lo, br.hi) == (Fraction(1, 5), Fraction(6, 25))

    br = estimate_translation(delta_power_element(B3, 1), 7)
    assert (br.lo, br.hi) == (Fraction(1), Fraction(8, 7))

    prod = product_structure(torus_structure(2, 3), torus_structure(2, 3))
    br = estimate_translation(parse_word(prod, "L.x R.y"), 36)
    assert (br.lo, br.hi) == (Fraction(1, 3), Fraction(13, 36))
    assert Fraction(1, 3) in br


def test_brackets_contain_exact_value_at_each_power():
    rng = random.Random(73)
    for S in (B3, T53):
        N = S.delta_norm()
        for _ in range(10):
            g = random_word_element(S, rng, max_letters=4)
            exact = translation_triple(g).t_inf
            brackets = [estimate_translation(g, n) for n in (N, N * N, 2 * N * N)]
            for br in brackets:
                assert exact in br


def test_bracket_is_an_interval():
    assert Bracket(Fraction(0), Fraction(1)).lo <= Bracket(Fraction(0), Fraction(1)).hi
    assert Fraction(1, 2) in Bracket(Fraction(0), Fraction(1))
    assert Fraction(2) not in Bracket(Fraction(0), Fraction(1))
