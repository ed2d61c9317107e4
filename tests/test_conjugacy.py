"""Cycling, summit invariants, super summit sets and conjugacy decision."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import (
    BraidStructure,
    Element,
    ProductStructure,
    ResourceLimitError,
    TorusStructure,
    are_conjugate,
    invert,
    multiply,
    power,
    simple_element,
    summit,
    super_summit_set,
    validate_element,
)
from garside.cli import parse_word

from .conftest import assert_conjugate_by, elements_of, random_word_element
from .oracle import brute_summit_inf
from .test_repair_paths import STRUCTURES, cycling_step, decycling_step, normal_forms_of

B3 = BraidStructure(3)
T53 = TorusStructure(5, 3)
T43 = TorusStructure(4, 3)


def test_cycling_fixtures():
    g = parse_word(B3, "a1 a1 a2")
    result, conj = cycling_step(g)
    assert result == Element(B3, 1, ())
    assert conj == B3.atom_simple(0)
    # conjugator verifies: a^{-1} g a = result
    assert_conjugate_by(simple_element(conj), g, result)

    s = parse_word(B3, "a1")
    assert cycling_step(s) == (s, B3.atom_simple(0))


def test_decycling_fixtures():
    g = parse_word(B3, "a1 a1 a2")
    result, last = decycling_step(g)
    assert result == Element(B3, 1, ())
    # decycling conjugates by the inverse of the final factor
    assert_conjugate_by(invert(simple_element(last)), g, result)

    x2 = parse_word(T53, "x^2")
    assert decycling_step(x2) == (x2, T53.make_simple(("x", 2)))


def test_summit_fixtures():
    sd = summit(parse_word(B3, "a1 a1 a2"))
    assert (sd.inf_s, sd.sup_s) == (1, 1)
    assert sd.representative == Element(B3, 1, ())

    for k in (-3, 0, 2):
        sd = summit(Element(B3, k, ()))
        assert (sd.inf_s, sd.sup_s) == (k, k)
        assert sd.representative == Element(B3, k, ())

    sd = summit(parse_word(T53, "x"))
    assert (sd.inf_s, sd.sup_s) == (0, 1)
    assert brute_summit_inf(parse_word(T53, "x"), 6) == 0


def test_summit_witness_verifies():
    rng = random.Random(3)
    for S in (B3, T43):
        for _ in range(20):
            g = random_word_element(S, rng)
            sd = summit(g)
            assert_conjugate_by(sd.witness, g, sd.representative)
            assert (sd.representative.inf, sd.representative.sup) == (sd.inf_s, sd.sup_s)


def test_super_summit_set_fixtures():
    assert super_summit_set(Element(B3, 1, ())) == (Element(B3, 1, ()),)
    sss = super_summit_set(parse_word(B3, "a1"))
    assert set(sss) == {parse_word(B3, "a1"), parse_word(B3, "a2")}
    assert super_summit_set(parse_word(B3, "a1 a1 a2")) == (Element(B3, 1, ()),)


def test_super_summit_set_deterministic_order():
    sss = super_summit_set(parse_word(B3, "a1"))
    assert list(sss) == sorted(sss, key=Element.sort_key)


def test_super_summit_set_members_conjugate_to_input():
    rng = random.Random(9)
    for _ in range(10):
        g = random_word_element(B3, rng, max_letters=4)
        for member in super_summit_set(g):
            witness = are_conjugate(g, member)
            assert witness is not None
            assert_conjugate_by(witness, g, member)


def test_super_summit_set_resource_cap():
    with pytest.raises(ResourceLimitError):
        super_summit_set(parse_word(B3, "a1"), cap=1)


def test_are_conjugate_fixtures():
    w = are_conjugate(parse_word(B3, "a1"), parse_word(B3, "a2"))
    assert w is not None
    assert_conjugate_by(w, parse_word(B3, "a1"), parse_word(B3, "a2"))

    assert are_conjugate(parse_word(B3, "a1"), parse_word(B3, "a1^2")) is None

    w = are_conjugate(parse_word(B3, "a1 a1 a2"), Element(B3, 1, ()))
    assert w is not None
    assert_conjugate_by(w, parse_word(B3, "a1 a1 a2"), Element(B3, 1, ()))


def test_summit_inequalities():
    rng = random.Random(17)
    for S in (B3, T43):
        for _ in range(15):
            g = random_word_element(S, rng, max_letters=4, max_inf=1)
            infs = {n: summit(power(g, n)).inf_s for n in range(1, 7)}
            sups = {n: summit(power(g, n)).sup_s for n in range(1, 7)}
            for n in range(1, 5):
                assert n * infs[1] <= infs[n] <= n * infs[1] + n - 1
                assert n * sups[1] - (n - 1) <= sups[n] <= n * sups[1]
            for m in range(1, 4):
                for n in range(1, 4):
                    assert infs[m] + infs[n] <= infs[m + n] <= infs[m] + infs[n] + 1


@settings(max_examples=50, deadline=None)
@given(g=elements_of(B3))
def test_summit_bounds_and_conjugates(g):
    sd = summit(g)
    assert g.inf <= sd.inf_s
    assert sd.sup_s <= g.sup
    if not g.factors:
        return
    result, conj = cycling_step(g)
    assert_conjugate_by(simple_element(conj), g, result)
    validate_element(result)
    result, last = decycling_step(g)
    assert_conjugate_by(invert(simple_element(last)), g, result)
    validate_element(result)


def test_summit_matches_brute_force_oracle():
    # 100 random small elements across B3, torus(4,3), torus(4,6) (N < M)
    # and a product; the larger generating sets of the last two get shorter
    # conjugator caps, which keep the test to about two seconds.
    rng = random.Random(23)
    T46 = TorusStructure(4, 6)
    B3xT23 = ProductStructure(B3, TorusStructure(2, 3))
    for S, cap in ((B3, 6), (T43, 6), (T46, 5), (B3xT23, 3)):
        for _ in range(25):
            g = random_word_element(S, rng, max_letters=4, max_inf=1)
            assert summit(g).inf_s == brute_summit_inf(g, cap)


@pytest.mark.parametrize("S", STRUCTURES, ids=lambda S: S.descriptor())
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_summit_bounds_the_brute_force_conjugates(S, data):
    # No conjugate by a word of at most two simples or inverses has a
    # larger inf, or a smaller sup, than the summit values.
    g = data.draw(normal_forms_of(S))
    sd = summit(g)
    assert brute_summit_inf(g, 2) <= sd.inf_s
    assert sd.sup_s <= -brute_summit_inf(invert(g), 2)


def test_summit_oracle_agreement_b4():
    # The stopping window is wider in B4 (N = 6); audit it against brute
    # force on a handful of small elements.
    rng = random.Random(123)
    B4 = BraidStructure(4)
    from garside.enumeration import sample_element

    for _ in range(6):
        g = sample_element(B4, rng, max_inf=1, max_len=2)
        assert brute_summit_inf(g, 4) == summit(g).inf_s


def test_super_summit_set_contains_all_brute_conjugates():
    # Every conjugate found by exhaustive short conjugation that sits at the
    # summit values must already be in the enumerated set.
    from .oracle import _generators

    rng = random.Random(29)
    for _ in range(8):
        g = random_word_element(B3, rng, max_letters=3, max_inf=1)
        sd = summit(g)
        sss = set(super_summit_set(g))
        pairs = [(x, invert(x)) for x in _generators(B3)]
        seen = {g}
        frontier = [g]
        for _ in range(4):
            nxt = []
            for h in frontier:
                for x, x_inv in pairs:
                    h2 = multiply(multiply(x_inv, h), x)
                    if h2 not in seen:
                        seen.add(h2)
                        nxt.append(h2)
            frontier = nxt
        at_summit = {h for h in seen if (h.inf, h.sup) == (sd.inf_s, sd.sup_s)}
        assert at_summit <= sss
