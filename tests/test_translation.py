"""Exact translation numbers, straightness, quotient values."""

import random
from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import (
    BraidStructure,
    Element,
    ProductStructure,
    TorusStructure,
    invert,
    multiply,
    normalize,
    power,
    simple_element,
    straightness,
    structure_from_descriptor,
    summit,
    translation_number,
    translation_triple,
    validate_element,
)
from garside import translation
from garside.cli import parse_word

from .conftest import elements_of, random_word_element
from .oracle import power_summit_triple, scan_rational_in_interval, two_summit_triple
from .test_repair_paths import normal_forms_of

B3 = BraidStructure(3)
B4 = BraidStructure(4)
T53 = TorusStructure(5, 3)
PROD = ProductStructure(TorusStructure(2, 3), TorusStructure(2, 3))

# braid:2 is the infinite-cyclic case N = 1, where every element is rigid;
# the first two products are those of test_repair_paths, and the third has
# a braid:2 component.
REFERENCE_STRUCTURES = [
    structure_from_descriptor(d)
    for d in (
        "braid:2",
        "braid:3",
        "braid:4",
        "torus:5:3",
        "product:(torus:2:3,torus:2:3)",
        "product:(product:(braid:3,torus:2:3),braid:3)",
        "product:(braid:2,braid:3)",
    )
]
PRODUCTS = [S for S in REFERENCE_STRUCTURES if isinstance(S, ProductStructure)]


def shifted_elements_of(S, lo, hi):
    """Products of up to 6 random simples, shifted by Delta to inf in [lo, hi]."""
    raw = st.lists(st.sampled_from(S.enumerate_simples()), max_size=6)
    g = st.builds(normalize, st.just(S), st.just(0), raw)
    return st.builds(
        lambda g, inf: multiply(Element(S, inf - g.inf, ()), g),
        g,
        st.integers(lo, hi),
    )


def test_translation_triple_fixtures():
    t = translation_triple(parse_word(T53, "x"))
    assert (t.t_inf, t.t_sup, t.t_len) == (Fraction(1, 5), Fraction(1, 5), 0)

    t = translation_triple(parse_word(PROD, "L.x R.y"))
    assert (t.t_inf, t.t_sup, t.t_len) == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))

    for k in (-2, 0, 3):
        t = translation_triple(Element(B3, k, ()))
        assert (t.t_inf, t.t_sup, t.t_len) == (k, k, 0)


def test_translation_number_fixtures():
    assert translation_number(parse_word(T53, "x")) == Fraction(1, 5)
    assert translation_number(parse_word(PROD, "L.x^-1 R.y")) == Fraction(5, 6)
    assert translation_number(parse_word(B3, "a1 a1 a2")) == 1
    assert translation_number(Element(B3, 0, ())) == 0


def test_straightness_fixtures():
    assert straightness(Element(B3, 1, ()))[:2] == (True, True)
    x = parse_word(T53, "x")
    assert straightness(x)[:2] == (False, False)
    for k in range(1, 5):
        assert power(x, k).inf == 0
    assert straightness(parse_word(B3, "a1"))[:2] == (True, True)


def test_conjugate_straightness_fixtures():
    # The last two flags: conjugate to an inf-straight resp. sup-straight element.
    assert straightness(parse_word(T53, "x"))[2:] == (False, False)
    assert straightness(parse_word(B3, "a1 a1 a2"))[2:] == (True, True)
    assert straightness(parse_word(PROD, "L.x R.y"))[2:] == (False, False)


def test_straightness_forms_one_power(monkeypatch):
    calls = []

    def counted(g, n):
        calls.append(n)
        return power(g, n)

    monkeypatch.setattr(translation, "power", counted)
    assert straightness(parse_word(B3, "a1 a1 a2")) == (False, False, True, True)
    assert calls == [B3.delta_norm()]


def test_delta_central_exponent_fixtures():
    assert B3.tau_order() == 2
    assert T53.tau_order() == 1
    assert PROD.tau_order() == 1
    assert BraidStructure(4).tau_order() == 2
    assert BraidStructure(2).tau_order() == 1


def test_quotient_translation_fixtures():
    # The quotient value is t_len.
    assert translation_triple(parse_word(B3, "a1")).t_len == 1
    assert translation_triple(Element(B3, 1, ())).t_len == 0
    assert translation_triple(parse_word(PROD, "L.x R.y")).t_len == Fraction(1, 6)


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
            assert scan_rational_in_interval(lo, lo + Fraction(1, n), N) == t.t_inf


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


def test_infinite_cyclic_edge_case():
    B2 = BraidStructure(2)
    g = parse_word(B2, "a1^3")
    t = translation_triple(g)
    assert (t.t_inf, t.t_sup, t.t_len) == (3, 3, 0)
    assert translation_number(g) == 3


@pytest.mark.parametrize("S", REFERENCE_STRUCTURES, ids=lambda S: S.descriptor())
@pytest.mark.parametrize("lo, hi", [(-3, -1), (0, 0), (1, 3)], ids=["inf<0", "inf=0", "inf>0"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_one_summit_triple_matches_two_summit_reference(S, lo, hi, data):
    # 18 cases of 8 examples each: every family with inf < 0, = 0 and > 0.
    g = data.draw(shifted_elements_of(S, lo, hi))
    assert lo <= g.inf <= hi
    assert translation_triple(g) == two_summit_triple(g)


def rigid_or_shifted_elements_of(S):
    """Shifted products of simples, Delta^k, atom powers a^j and their
    products Delta^k · a^j: Delta^k and a^j have rigid summits, and an odd k
    puts tau^{-p} into the wrap pair."""
    atoms = st.integers(0, len(S.atoms()) - 1).map(lambda i: simple_element(S.atom_simple(i)))
    delta_powers = st.integers(-3, 3).map(lambda k: Element(S, k, ()))
    atom_powers = st.builds(power, atoms, st.integers(-5, 5))
    return st.one_of(
        shifted_elements_of(S, -3, 3),
        delta_powers,
        atom_powers,
        st.builds(multiply, delta_powers, atom_powers),
    )


@pytest.mark.parametrize("S", REFERENCE_STRUCTURES, ids=lambda S: S.descriptor())
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_triple_matches_the_power_summit_oracle(S, data):
    g = data.draw(rigid_or_shifted_elements_of(S))
    assert translation_triple(g) == power_summit_triple(g)


@pytest.mark.parametrize("S", PRODUCTS, ids=lambda S: S.descriptor())
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_split_reads_the_normal_form_of_each_component(S, data):
    # Each column of factor pairs, with its Deltas and identities, normalizes
    # to the component; split reads it with no slides.
    g = data.draw(st.one_of(normal_forms_of(S), rigid_or_shifted_elements_of(S)))
    parts = S.split(g)
    for c, (C, part) in enumerate(zip((S.left, S.right), parts)):
        assert part.structure is C
        validate_element(part)
        assert part == normalize(C, g.inf, [s.payload[c] for s in g.factors])
    assert (g.inf, g.sup) == (min(p.inf for p in parts), max(p.sup for p in parts))


def test_rigidity_tests_the_wrap_pair_through_tau():
    # The representative Delta^-1 · s, s = a4a3a5a4, is its own summit:
    # (s, s) is left-weighted, but the wrap pair (s, tau(s)) is not, so the
    # triple comes from its powers and is not the (-1, 0) a read-off gives.
    g = parse_word(BraidStructure(6), "D^-1 a4 a3 a5 a4")
    (s,) = summit(g).representative.factors
    assert s.structure.slide(s, s)[0] is s
    t = translation_triple(g)
    assert (t.t_inf, t.t_sup) == (-1, Fraction(-2, 3))
    assert t == power_summit_triple(g)


def test_translation_triple_powers_only_a_non_rigid_summit(monkeypatch):
    calls = {"power": [], "summit": []}

    def counting(name, fn):
        def wrapper(*args):
            calls[name].append(args[0])
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(translation, name, counting(name, getattr(translation, name)))
    # Not rigid at any m <= N = 6: one summit of g, then one of each power
    # x^2, ..., x^6 of its representative x, formed without `power`.
    g = parse_word(B4, "a3 a3 a1^-1")
    x = summit(g).representative
    t = translation_triple(g)
    assert (t.t_inf, t.t_sup) == (-1, 2)
    assert calls == {"power": [], "summit": [g, *(power(x, m) for m in range(2, 7))]}
    # A product: no summit or power of a product element, but one summit of
    # each component and of its representative's powers up to the first
    # rigid one: x^2 = Delta on the left, y^3 = Delta on the right.
    calls["summit"].clear()
    g = parse_word(PROD, "L.x R.y")
    left, right = PROD.split(g)
    x, y = summit(left).representative, summit(right).representative
    t = translation_triple(g)
    assert (t.t_inf, t.t_sup) == (Fraction(1, 3), Fraction(1, 2))
    assert calls == {"power": [], "summit": [left, power(x, 2), right, power(y, 2), power(y, 3)]}
    # Rigid: the one summit of g, and no power.
    calls["summit"].clear()
    g = parse_word(B3, "a1 a2^-1")
    t = translation_triple(g)
    assert (t.t_inf, t.t_sup) == (-1, 1)
    assert calls == {"power": [], "summit": [g]}


@pytest.mark.parametrize("desc, word, exit_m", [
    ("braid:3", "a1 a2", 3),  # rigid only at m = N, with t = 2/3
    ("torus:2:3", "x", 2),
    ("braid:5", "a1 a2 a3", 2),  # x^2 has sup 2, its summit sup 1: t_sup = 1/2
    ("braid:4", "a3 a3 a1^-1", None),
    ("braid:5", "a1 a3^-1", None),
    ("braid:2", "a1^-2", 1),  # N = 1: Delta powers only
], ids=lambda v: str(v))
def test_every_exit_of_the_power_loop_matches_the_oracle(monkeypatch, desc, word, exit_m):
    # The loop summits x^m for m = 2, 3, ... and stops at the first rigid
    # representative, or after m = N with none.
    S = structure_from_descriptor(desc)
    g = parse_word(S, word)
    summits = []

    def counted(h):
        summits.append(h)
        return summit(h)

    monkeypatch.setattr(translation, "summit", counted)
    assert translation_triple(g) == power_summit_triple(g)
    assert len(summits) == (exit_m or S.delta_norm())


def bounded_rationals(N):
    """p/q with q <= N and |p/q| <= 3."""
    return st.integers(1, N).flatmap(
        lambda q: st.builds(Fraction, st.integers(-3 * q, 3 * q), st.just(q))
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data(), N=st.integers(1, 30))
def test_first_powers_recover_every_bounded_limit(data, N):
    # The loop's lemma at every N from 1 (braid:2) to 30 (torus:N:2): for t
    # with denominator <= N, floor(m·t)/m <= t <= ceil(m·t)/m, with equality
    # at m = denominator, so the best bounds over m = 1..N are t itself.
    t = data.draw(bounded_rationals(N))
    assert max(Fraction(floor(m * t), m) for m in range(1, N + 1)) == t
    assert min(Fraction(ceil(m * t), m) for m in range(1, N + 1)) == t


@pytest.mark.parametrize("S", REFERENCE_STRUCTURES, ids=lambda S: S.descriptor())
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_conjugate_straightness_matches_integral_limits(S, data):
    # inf_s = floor(t_inf), t_inf(g^N) = N·t_inf(g) and no limit has a
    # fractional part in (0, 1/N), so inf_s(g^N) = N·inf_s(g) exactly when
    # t_inf is an integer; likewise for sup.
    g = data.draw(shifted_elements_of(S, -2, 2))
    t = translation_triple(g)
    assert straightness(g)[2:] == (t.t_inf.denominator == 1, t.t_sup.denominator == 1)
