"""Normal-form engine: meets, complements, normalization, group arithmetic."""

import itertools
import random

import pytest
from hypothesis import given, settings

from garside import (
    BraidStructure,
    Element,
    StructureMismatchError,
    TorusStructure,
    invert,
    multiply,
    normalize,
    power,
    simple_element,
    structure_from_descriptor,
    super_summit_set,
    validate_element,
    word_length,
)
from garside.cli import parse_word
from garside.core import GarsideStructure, Simple
from garside.enumeration import proper_simples

from .conftest import elements_of, perm_mul, simple_divisors
from .oracle import reference_product
from .test_repair_paths import STRUCTURES


def simple_by_perm(S, perm):
    return S.make_simple(tuple(perm))


def test_simple_meet_b3_fixture(b3):
    # Independent oracle: intersect the left-divisor sets of both factors.
    s21 = simple_by_perm(b3, (1, 2, 0))  # a2 then a1
    s12 = simple_by_perm(b3, (2, 0, 1))  # a1 then a2
    common = simple_divisors(b3, s21) & simple_divisors(b3, s12)
    assert common == {b3.identity_simple()}
    assert b3.meet(s21, s12) == b3.identity_simple()


def test_simple_meet_idempotent(b3, torus53):
    for S in (b3, torus53):
        for s in S.enumerate_simples():
            assert S.meet(s, s) == s


def test_simple_meet_torus_chains(torus53):
    x2 = torus53.make_simple(("x", 2))
    x4 = torus53.make_simple(("x", 4))
    y2 = torus53.make_simple(("y", 2))
    assert torus53.meet(x2, x4) == x2
    assert torus53.meet(x2, y2) == torus53.identity_simple()


def test_meet_is_greatest_common_divisor(b3, torus53):
    # Exhaustive: the meet divides both arguments and dominates every
    # common divisor, with divisibility decided by element arithmetic.
    for S in (b3, torus53):
        simples = S.enumerate_simples()
        for a, b in itertools.product(simples, simples):
            m = S.meet(a, b)
            div_a, div_b = simple_divisors(S, a), simple_divisors(S, b)
            assert m in div_a and m in div_b
            dominated = simple_divisors(S, m)
            assert (div_a & div_b) <= dominated


def test_meet_structure_mismatch(b3, b4):
    with pytest.raises(StructureMismatchError):
        b3.meet(b3.atom_simple(0), b4.atom_simple(0))


def test_right_complement_fixture(b3):
    # a1 * complement = Delta, checked with raw permutation arithmetic.
    a1 = b3.atom_simple(0)
    comp = b3.right_complement(a1)
    assert comp.payload == (1, 2, 0)  # a2 a1
    assert perm_mul(a1.payload, comp.payload) == (2, 1, 0)


def test_right_complement_boundaries(b3, torus53):
    for S in (b3, torus53):
        assert S.right_complement(S.identity_simple()) == S.delta()
        assert S.right_complement(S.delta()) == S.identity_simple()


def test_complement_norm_sum_braids(b3, b4):
    # Braid norms are additive, so the complement norm is exactly N - ||s||.
    for S in (b3, b4):
        N = S.delta_norm()
        for s in S.enumerate_simples():
            assert S.right_complement(s).atom_norm == N - s.atom_norm


def test_left_right_complement_inverse_laws(b3, b4, torus53):
    for S in (b3, b4, torus53):
        for s in S.enumerate_simples():
            assert S.right_complement(S.left_complement(s)) == s
            assert S.left_complement(S.right_complement(s)) == s


def test_make_left_weighted_pair_fixtures(b3):
    a1 = b3.atom_simple(0)
    s12 = simple_by_perm(b3, (2, 0, 1))
    assert b3.slide(s12, a1) == (b3.delta(), b3.identity_simple())
    assert b3.slide(a1, s12) == (a1, s12)
    s = simple_by_perm(b3, (1, 2, 0))
    assert b3.slide(b3.identity_simple(), s) == (s, b3.identity_simple())


def test_slide_left_weights_every_pair(b3, torus53):
    # Exhaustive over all simple pairs: one slide preserves the product and
    # lands on a left-weighted pair (Delta and identity included).
    for S in (b3, torus53):
        identity = S.identity_simple()
        for a, b in itertools.product(S.enumerate_simples(), repeat=2):
            a2, b2 = S.slide(a, b)
            lhs = multiply(simple_element(a), simple_element(b))
            rhs = multiply(simple_element(a2), simple_element(b2))
            assert lhs == rhs
            assert S.meet(S.right_complement(a2), b2) == identity


SLIDE_ROW_SAMPLE = 3_000


def payload_slide(S, a, b):
    """The left-weighted pair of payloads (a, b), from the payload primitives
    and the families' own product formulas alone."""
    c = S._meet(S._right_complement(a), b)
    if S._norm(c) == 0:
        return (a, b)
    return (reference_product(S, a, c), S._left_divide(c, b))


@pytest.mark.parametrize(
    "descriptor",
    [
        "braid:3",
        "braid:4",
        "torus:5:3",
        "torus:2:3",
        "product:(braid:3,torus:2:3)",
        "braid:5",
        "product:(product:(braid:3,torus:2:3),braid:3)",
    ],
)
def test_slide_rows_match_payload_slides(descriptor):
    # All pairs where there are at most SLIDE_ROW_SAMPLE, else a seeded
    # sample, Delta and the identity included.  Normalizing a·b makes a the
    # pending simple and merges b through the row of a, filling it; the
    # row must then hold the interned pair a fresh payload slide gives.
    S = structure_from_descriptor(descriptor)
    pairs = list(itertools.product(S.enumerate_simples(), repeat=2))
    if len(pairs) > SLIDE_ROW_SAMPLE:
        pairs = random.Random(61).sample(pairs, SLIDE_ROW_SAMPLE)
    for a, b in pairs:
        normalize(S, 0, (a, b))
    for a, b in pairs:
        row = a.slides[b]
        expected = payload_slide(S, a.payload, b.payload)
        assert tuple(s.payload for s in row) == expected
        assert all(s is S.make_simple(p) for s, p in zip(row, expected))
    # The rows are the only slide store, and with the twist tables they
    # hold every product and tau a slide forms.
    for op in (GarsideStructure.slide, GarsideStructure.simple_product,
               GarsideStructure.tau_simple):
        assert op.cache_info().currsize == 0


def test_super_summit_walk_adds_no_meet_entries():
    # Slides, joins and left divisions take their inner meets on payloads:
    # each is read once, by a composite whose result is itself stored.
    S = BraidStructure(5)
    g = parse_word(S, "a1 a2^-1 a3 a4^-2 a2 a1^-1 a3^2")
    before = GarsideStructure.meet.cache_info().currsize
    assert len(super_summit_set(g)) == 420
    assert GarsideStructure.meet.cache_info().currsize == before


@pytest.mark.parametrize(
    "descriptor",
    [
        "braid:2",
        "braid:3",
        "braid:4",
        "braid:5",
        "torus:5:3",
        "torus:2:3",
        "torus:3:5",
        "product:(braid:3,torus:2:3)",
        "product:(product:(braid:3,torus:2:3),braid:3)",
    ],
)
def test_derived_operations_match_slides(descriptor):
    # tau, the left complement and the identity are derived from the right
    # complement; normalize reaches the same elements through slides alone.
    S = structure_from_descriptor(descriptor)
    for s in S.enumerate_simples():
        assert normalize(S, 0, (s, S.delta())) == normalize(S, 1, (S.tau_simple(s),))
        assert normalize(S, 0, (S.left_complement(s), s)) == Element(S, 1, ())
        assert simple_element(s) == normalize(S, 0, (s,))


@pytest.mark.parametrize(
    "S",
    [*STRUCTURES, BraidStructure(5), structure_from_descriptor("torus:4:6")],
    ids=lambda S: S.descriptor(),
)
def test_tau_tables_apply_tau_k_mod_order_times(S):
    # The `twist` tables against tau_simple applied directly.
    for s in S.enumerate_simples():
        for k in range(-3, 4):
            expected = s
            for _ in range(k % S.tau_order()):
                expected = S.tau_simple(expected)
            assert S.twist(k)[s] is expected


def test_normalize_fixtures(b3, torus53):
    a1, a2 = b3.atom_simple(0), b3.atom_simple(1)
    g = normalize(b3, 0, (a1, a1, a2))
    assert g.inf == 0
    assert [s.payload for s in g.factors] == [(1, 0, 2), (2, 0, 1)]
    assert b3.meet(b3.right_complement(g.factors[0]), g.factors[1]) == b3.identity_simple()

    assert normalize(b3, 0, (a1, a2, a1)) == Element(b3, 1, ())
    assert normalize(b3, 0, ()) == Element(b3, 0, ())

    x = torus53.atom_simple(0)
    g = normalize(torus53, 0, (x,) * 7)
    assert g.inf == 1 and [s.payload for s in g.factors] == [("x", 2)]


def test_multiply_fixtures(b3, torus53):
    a1 = simple_element(b3.atom_simple(0))
    s21 = simple_element(simple_by_perm(b3, (1, 2, 0)))
    assert multiply(a1, s21) == Element(b3, 1, ())
    g = multiply(a1, a1)
    assert multiply(g, Element(b3, 0, ())) == g
    x = simple_element(torus53.atom_simple(0))
    assert multiply(power(x, 3), power(x, 4)) == power(x, 7)
    assert power(x, 7).inf == 1


def test_multiply_structure_mismatch(b3, torus53):
    with pytest.raises(StructureMismatchError):
        multiply(Element(b3, 0, ()), Element(torus53, 0, ()))


def test_normalize_rejects_a_simple_of_another_structure(b3, b4):
    with pytest.raises(StructureMismatchError):
        normalize(b3, 0, [b3.atom_simple(0), b4.atom_simple(0)])


def test_validate_element_rejects_each_broken_invariant(b3, b4):
    # Many tests lean on this validator, so each of its checks must fire.
    a1, a2 = b3.atom_simple(0), b3.atom_simple(1)
    validate_element(Element(b3, 0, (a1, a1)))
    cases = [
        ((b4.atom_simple(0),), "different structure"),
        ((b3.identity_simple(),), "identity or Delta"),
        ((a1, b3.delta()), "identity or Delta"),
        # A Simple built directly, around the interning constructor.
        ((Simple(b3, a1.payload, 2),), "stale atom norm"),
        # a1 · a2 is simple, so the pair is not left-weighted.
        ((a1, a2), "not left-weighted"),
    ]
    for factors, message in cases:
        with pytest.raises(ValueError, match=message):
            validate_element(Element(b3, 0, factors))


def test_invert_fixtures(b3):
    a1 = simple_element(b3.atom_simple(0))
    inv = invert(a1)
    assert inv.inf == -1
    assert [s.payload for s in inv.factors] == [(2, 0, 1)]  # a1 a2
    assert invert(Element(b3, 1, ())) == Element(b3, -1, ())
    assert invert(Element(b3, 0, ())) == Element(b3, 0, ())


def test_power_fixtures(b3, torus53):
    a1, a2 = simple_element(b3.atom_simple(0)), simple_element(b3.atom_simple(1))
    assert power(multiply(a1, a2), 3) == Element(b3, 2, ())
    g = multiply(a1, a1)
    assert power(g, 1) == g
    x = simple_element(torus53.atom_simple(0))
    assert power(x, 25) == Element(torus53, 5, ())
    assert power(x, 25).sup == 5


def test_word_length_cases(b3):
    a2 = b3.atom_simple(1)
    g = Element(b3, 1, (a2,))
    assert word_length(g) == 2
    a1_inv = invert(simple_element(b3.atom_simple(0)))
    assert word_length(a1_inv) == 1
    h = Element(b3, -1, (b3.atom_simple(0), b3.atom_simple(0)))
    assert (h.inf, h.sup) == (-1, 1)
    assert word_length(h) == 2


def lmax(g):
    """The head Delta ∧ g of a positive element."""
    if g.inf < 0:
        raise ValueError("lmax is defined for positive elements only")
    if g.inf >= 1:
        return g.structure.delta()
    return g.factors[0] if g.factors else g.structure.identity_simple()


def tau_conjugate(g):
    """Delta^{-1} · g · Delta."""
    S = g.structure
    return multiply(multiply(Element(S, -1, ()), g), Element(S, 1, ()))


def test_lmax_fixtures(b3, torus53):
    a1, a2 = simple_element(b3.atom_simple(0)), simple_element(b3.atom_simple(1))
    g = multiply(multiply(a1, a1), a2)
    assert lmax(g) == b3.atom_simple(0)
    assert lmax(multiply(Element(b3, 1, ()), a1)) == b3.delta()
    x3 = normalize(torus53, 0, (torus53.make_simple(("x", 3)),))
    assert lmax(x3) == torus53.make_simple(("x", 3))
    assert lmax(Element(b3, 0, ())) == b3.identity_simple()
    with pytest.raises(ValueError):
        lmax(invert(a1))


# ----------------------------------------------------------------------
# independent word-problem model for torus groups
# ----------------------------------------------------------------------


def torus_model(N, M, letters):
    """Reduce a signed letter word in <x, y | x^N = y^M> by hand.

    Delta = x^N = y^M is central, so every element is uniquely a Delta
    power times an alternating word of chain powers with exponents in
    (0, chain modulus); this is a second, engine-free solution of the
    word problem used to audit the normal forms.
    """
    delta = 0
    stack = []
    for chain, e in letters:
        if stack and stack[-1][0] == chain:
            e += stack.pop()[1]
        q, r = divmod(e, N if chain == "x" else M)
        delta += q
        if r:
            stack.append((chain, r))
    return delta, tuple(stack)


def test_torus_words_match_independent_model():
    import random

    T = TorusStructure(5, 3)
    x, y = simple_element(T.atom_simple(0)), simple_element(T.atom_simple(1))
    rng = random.Random(13)
    for _ in range(200):
        letters = [
            (rng.choice("xy"), rng.choice((-2, -1, 1, 2, 3)))
            for _ in range(rng.randint(0, 8))
        ]
        g = Element(T, 0, ())
        for chain, e in letters:
            g = multiply(g, power(x if chain == "x" else y, e))
        engine_word = tuple(s.payload for s in g.factors)
        assert (g.inf, engine_word) == torus_model(5, 3, letters)


def test_one_shot_normalize_matches_incremental_products(b4):
    # The full fixpoint pass over a raw factor list and the junction-based
    # incremental product are different code paths; they must agree.
    import random

    rng = random.Random(29)
    simples = list(b4.enumerate_simples())
    for _ in range(100):
        shift = rng.randint(-2, 2)
        raws = [rng.choice(simples) for _ in range(rng.randint(0, 8))]
        one_shot = normalize(b4, shift, raws)
        incremental = Element(b4, shift, ())
        for s in raws:
            incremental = multiply(incremental, simple_element(s))
        assert one_shot == incremental
        validate_element(one_shot)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

B3 = BraidStructure(3)
B4 = BraidStructure(4)
T53 = TorusStructure(5, 3)


@settings(max_examples=60, deadline=None)
@given(g=elements_of(B4))
def test_round_trip_and_idempotence(g):
    validate_element(g)
    assert multiply(g, invert(g)).is_identity
    assert normalize(g.structure, g.inf, g.factors) == g


@settings(max_examples=60, deadline=None)
@given(g=elements_of(B3), h=elements_of(B3))
def test_operations_produce_valid_normal_forms(g, h):
    for value in (multiply(g, h), invert(g), power(g, 3)):
        validate_element(value)


@settings(max_examples=60, deadline=None)
@given(g=elements_of(T53), h=elements_of(T53))
def test_inf_subadditive(g, h):
    assert multiply(g, h).inf >= g.inf + h.inf


@settings(max_examples=60, deadline=None)
@given(g=elements_of(B4, max_letters=5), h=elements_of(B4, max_letters=5))
def test_conjugation_inf_bound(g, h):
    conj = multiply(multiply(invert(h), g), h)
    assert abs(conj.inf - g.inf) <= h.canonical_length


@settings(max_examples=40, deadline=None)
@given(
    a=elements_of(B3, max_letters=4, max_inf=0),
    b=elements_of(B3, max_letters=4, max_inf=0),
)
def test_lmax_laws(a, b):
    # Restrict to positive elements: rebuild without the Delta shift.
    a = normalize(B3, max(a.inf, 0), a.factors)
    b = normalize(B3, max(b.inf, 0), b.factors)
    assert lmax(multiply(a, b)) == lmax(multiply(a, simple_element(lmax(b))))
    assert lmax(tau_conjugate(a)) == B3.tau_simple(lmax(a))


@settings(max_examples=40, deadline=None)
@given(a=elements_of(B3, max_letters=4, max_inf=0))
def test_lmax_divisibility(a):
    a = normalize(B3, max(a.inf, 0), a.factors)
    for s in proper_simples(B3):
        sa = multiply(simple_element(s), a)
        assert B3.meet(s, lmax(sa)) == s
