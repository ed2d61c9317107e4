"""Exact translation numbers, straightness, quotient values."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from garside import (
    MultipleCandidatesError,
    braid_structure,
    conjugate_straightness,
    delta_central_exponent,
    delta_power_element,
    identity_element,
    invert,
    multiply,
    power,
    product_structure,
    quotient_translation_number,
    rational_in_interval,
    straightness,
    summit,
    torus_structure,
    translation_number,
    translation_triple,
)
from garside.cli import parse_word

from .conftest import elements_of, random_word_element

B3 = braid_structure(3)
B4 = braid_structure(4)
T53 = torus_structure(5, 3)
PROD = product_structure(torus_structure(2, 3), torus_structure(2, 3))


def test_rational_in_interval_fixtures():
    assert rational_in_interval(Fraction(5, 25), Fraction(6, 25), 5) == Fraction(1, 5)
    assert rational_in_interval(Fraction(3, 7), Fraction(3, 7), 7) == Fraction(3, 7)
    assert rational_in_interval(Fraction(21, 100), Fraction(6, 25), 5) is None
    with pytest.raises(MultipleCandidatesError):
        rational_in_interval(Fraction(0), Fraction(1), 3)
    with pytest.raises(ValueError):
        rational_in_interval(Fraction(1), Fraction(0), 3)


def test_translation_triple_fixtures():
    t = translation_triple(parse_word(T53, "x"))
    assert (t.t_inf, t.t_sup, t.t_len) == (Fraction(1, 5), Fraction(1, 5), 0)

    t = translation_triple(parse_word(PROD, "L.x R.y"))
    assert (t.t_inf, t.t_sup, t.t_len) == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))

    for k in (-2, 0, 3):
        t = translation_triple(delta_power_element(B3, k))
        assert (t.t_inf, t.t_sup, t.t_len) == (k, k, 0)


def test_translation_number_fixtures():
    assert translation_number(parse_word(T53, "x")) == Fraction(1, 5)
    assert translation_number(parse_word(PROD, "L.x^-1 R.y")) == Fraction(5, 6)
    assert translation_number(parse_word(B3, "a1 a1 a2")) == 1
    assert translation_number(identity_element(B3)) == 0


def test_straightness_fixtures():
    assert straightness(delta_power_element(B3, 1)) == (True, True)
    x = parse_word(T53, "x")
    assert straightness(x) == (False, False)
    for k in range(1, 5):
        assert power(x, k).inf == 0
    assert straightness(parse_word(B3, "a1")) == (True, True)


def test_conjugate_straightness_fixtures():
    assert conjugate_straightness(parse_word(T53, "x")) == (False, False)
    assert conjugate_straightness(parse_word(B3, "a1 a1 a2")) == (True, True)
    assert conjugate_straightness(parse_word(PROD, "L.x R.y")) == (False, False)


def test_delta_central_exponent_fixtures():
    assert delta_central_exponent(B3) == 2
    assert delta_central_exponent(T53) == 1
    assert delta_central_exponent(PROD) == 1
    assert delta_central_exponent(braid_structure(4)) == 2
    assert delta_central_exponent(braid_structure(2)) == 1


def test_quotient_translation_fixtures():
    assert quotient_translation_number(parse_word(B3, "a1")) == 1
    assert quotient_translation_number(delta_power_element(B3, 1)) == 0
    assert quotient_translation_number(parse_word(PROD, "L.x R.y")) == Fraction(1, 6)


@settings(max_examples=25, deadline=None)
@given(g=elements_of(B3, max_letters=4))
def test_homogeneity_and_conjugacy_invariance(g):
    t = translation_triple(g)
    for k in (2, 3, 4, 5):
        tk = translation_triple(power(g, k))
        assert tk.t_inf == k * t.t_inf
        assert tk.t_sup == k * t.t_sup


@settings(max_examples=25, deadline=None)
@given(g=elements_of(B3, max_letters=4), h=elements_of(B3, max_letters=4))
def test_conjugacy_invariance(g, h):
    conj = multiply(multiply(invert(h), g), h)
    assert translation_triple(conj) == translation_triple(g)


def test_bracket_bounds_and_gap():
    rng = random.Random(31)
    for S in (B3, B4, T53, PROD):
        N = S.delta_norm()
        for _ in range(20):
            g = random_word_element(S, rng, max_letters=4)
            sd = summit(g)
            t = translation_triple(g)
            # sharp bracket between the summit invariants
            assert sd.inf_s <= t.t_inf <= sd.inf_s + 1 - Fraction(1, N)
            assert sd.sup_s - 1 + Fraction(1, N) <= t.t_sup <= sd.sup_s
            # denominator bounds and the forbidden fractional window
            assert t.t_inf.denominator <= N and t.t_sup.denominator <= N
            assert t.t_len.denominator <= N * N
            for value in (t.t_inf, t.t_sup):
                frac = value - (value.numerator // value.denominator)
                assert not (0 < frac < Fraction(1, N))
            # t_len sandwich against len_s = sup_s - inf_s
            len_s = sd.sup_s - sd.inf_s
            assert len_s - 2 <= t.t_len <= len_s
            td = translation_number(g)
            assert td.denominator <= N * N
            if not g.is_identity:
                assert td >= Fraction(1, N)


def test_consistent_across_larger_power():
    # The bracket at n = 2N^2 selects the same rational as the one at N^2.
    rng = random.Random(37)
    for S in (B3, T53):
        N = S.delta_norm()
        for _ in range(8):
            g = random_word_element(S, rng, max_letters=3)
            t = translation_triple(g)
            n = 2 * N * N
            a = summit(power(g, n)).inf_s
            lo = Fraction(a, n)
            assert rational_in_interval(lo, lo + Fraction(1, n), N) == t.t_inf


def test_inverse_and_power_laws():
    rng = random.Random(41)
    for _ in range(10):
        g = random_word_element(B3, rng, max_letters=4)
        td = translation_number(g)
        assert translation_number(invert(g)) == td
        for n in (-3, -1, 2, 4):
            assert translation_number(power(g, n)) == abs(n) * td


def test_translation_number_matches_case_split():
    rng = random.Random(43)
    for S in (B3, T53, PROD):
        for _ in range(12):
            g = random_word_element(S, rng, max_letters=4)
            sd = summit(g)
            t = translation_triple(g)
            if sd.inf_s >= 0:
                expected = t.t_sup
            elif sd.sup_s <= 0:
                expected = -t.t_inf
            else:
                expected = t.t_len
            assert translation_number(g) == expected
            assert quotient_translation_number(g) == t.t_len


def test_infinite_cyclic_edge_case():
    B2 = braid_structure(2)
    g = parse_word(B2, "a1^3")
    t = translation_triple(g)
    assert (t.t_inf, t.t_sup, t.t_len) == (3, 3, 0)
    assert translation_number(g) == 3
