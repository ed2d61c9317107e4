"""Repair paths against a worklist renormalisation.

`_push` and `_push_front` are the two ends of one domino-rule repair:
`normalize` and `multiply` push simples onto the back of a left-weighted
list one leftward slide pass at a time, and `_push_front` prepends one
with a rightward pass.  `invert` reads its normal form off directly,
`multiply` twists the left factors only when tau^{h.inf} is not the
identity, `conjugacy._push_ends` makes every conjugation by simples one
push at each end of one working list (a cycling or a decycling of
`summit`, with the identity at the other end, and a step of the super
summit walk), and `core.normalize_word`, which `parse_word` calls,
normalizes a whole word of simples with exponents once.  Each is checked against
`oracle.stack_normalize` of the whole raw factor sequence, with every
adjacent pair marked dirty, or against the word evaluated one letter or
token at a time.  The summit representative and witness, the witness
normalized on first read from the recorded conjugators, are checked against a summit
that renormalises the whole word at every step and grows the witness one
step at a time, also on the long words g^(N^2) that `tnum` summits.
The step of the walk, c^{-1} h c, is checked against two `multiply` calls
and an `invert`, and the step at its edges (an identity or Delta at
either end) against `multiply`.  At scale,
seeded raw lists of up to 300 simples and 2,000-letter words check that
the pushes leave no Delta and no identity in a working list, and that the
Deltas they report, settled by their callers, give the oracle's answer.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import (
    Element,
    delta_power_element,
    identity_element,
    invert,
    multiply,
    normalize,
    power,
    simple_element,
    structure_from_descriptor,
    summit,
    validate_element,
)
from garside import cli, core
from garside.conjugacy import _push_ends

from .oracle import stack_normalize, token_word_element

STRUCTURES = [
    structure_from_descriptor(d)
    for d in (
        "braid:3",
        "braid:4",
        "torus:5:3",
        "product:(torus:2:3,torus:2:3)",
        "product:(product:(braid:3,torus:2:3),braid:3)",
    )
]


def normal_forms_of(S, max_raw=10, max_inf=3):
    """Normal forms of Delta^r times up to `max_raw` random simples."""
    simples = S.enumerate_simples()
    raw = st.lists(st.sampled_from(simples), max_size=max_raw)
    return st.builds(normalize, st.just(S), st.integers(-max_inf, max_inf), raw)


elements = st.sampled_from(STRUCTURES).flatmap(normal_forms_of)


def pairs_of(S):
    """(g, h) with h.inf at -1, 0 or +1 from a multiple of the tau order."""
    twist = st.builds(
        lambda m, d: m * S.tau_order() + d, st.integers(-2, 2), st.integers(-1, 1)
    )
    simples = st.lists(st.sampled_from(S.enumerate_simples()), max_size=8)
    h = st.builds(normalize, st.just(S), twist, simples)
    return st.tuples(normal_forms_of(S), h)


element_pairs = st.sampled_from(STRUCTURES).flatmap(pairs_of)


def reference_invert(g):
    S = g.structure
    r, k = g.inf, len(g.factors)
    raw = [
        S.twist(-(r + i + 1))[S.right_complement(g.factors[i])]
        for i in range(k - 1, -1, -1)
    ]
    return stack_normalize(S, -(r + k), raw)


def reference_multiply(g, h):
    S = g.structure
    return stack_normalize(
        S, g.inf + h.inf, tuple(S.twist(h.inf)[s] for s in g.factors) + h.factors
    )


def reference_summit(g):
    """Summit representative and witness: every step renormalises the whole
    word, and the witness grows by one multiply per step."""
    S = g.structure
    window = S.delta_norm()
    h = g
    witness = identity_element(S)

    fails = 0
    while fails < window and h.factors:
        h2, a = reference_cycling(h)
        fails = 0 if h2.inf > h.inf else fails + 1
        witness = multiply(witness, simple_element(a))
        h = h2

    fails = 0
    while fails < window and h.factors:
        h2, s = reference_decycling(h)
        fails = 0 if h2.sup < h.sup else fails + 1
        witness = multiply(witness, invert(simple_element(s)))
        h = h2

    return h, witness


def reference_cycling(g):
    S = g.structure
    a = S.twist(-g.inf)[g.factors[0]]
    return stack_normalize(S, g.inf, g.factors[1:] + (a,)), a


def reference_decycling(g):
    S = g.structure
    s = g.factors[-1]
    return stack_normalize(S, g.inf, (S.twist(g.inf)[s],) + g.factors[:-1]), s


@settings(max_examples=150, deadline=None)
@given(g=elements)
def test_invert_matches_full_renormalisation(g):
    inv = invert(g)
    validate_element(inv)
    assert inv == reference_invert(g)


def push_ends(S, inf, factors, front, back):
    """`_push_ends` on a copy of `factors`: the normal form of
    Delta^inf · front · factors · back, as an Element."""
    factors = list(factors)
    inf = _push_ends(S, inf, factors, front, back)
    return Element(S, inf, tuple(factors))


def cycling_step(g):
    """One cycling of g as `summit` makes it: (result, conjugator a)."""
    S = g.structure
    a = S.twist(-g.inf)[g.factors[0]]
    return push_ends(S, g.inf, g.factors[1:], S.identity_simple(), a), a


def decycling_step(g):
    """One decycling of g as `summit` makes it: (result, last factor s)."""
    S = g.structure
    s = g.factors[-1]
    return push_ends(S, g.inf, g.factors[:-1], S.twist(g.inf)[s], S.identity_simple()), s


def conjugation_step(h, c):
    """c^{-1} · h · c for a simple c as the super summit walk forms it."""
    S = h.structure
    return push_ends(S, h.inf - 1, h.factors, S.twist(h.inf)[S.left_complement(c)], c)


@settings(max_examples=150, deadline=None)
@given(g=elements.filter(lambda g: g.factors))
def test_cycling_and_decycling_match_full_renormalisation(g):
    steps = ((cycling_step, reference_cycling), (decycling_step, reference_decycling))
    for step, reference in steps:
        result, conjugator = step(g)
        validate_element(result)
        assert (result, conjugator) == reference(g)


@settings(max_examples=150, deadline=None)
@given(pair=element_pairs)
def test_multiply_matches_full_renormalisation(pair):
    g, h = pair
    product = multiply(g, h)
    validate_element(product)
    assert product == reference_multiply(g, h)


@settings(max_examples=100, deadline=None)
@given(g=elements)
def test_summit_witness_matches_stepwise_product(g):
    sd = summit(g)
    validate_element(sd.witness)
    assert (sd.representative, sd.witness) == reference_summit(g)


def powered_elements_of(S):
    """g^(N^2) for short g with Delta powers: long words, as `tnum` summits them."""
    return normal_forms_of(S, max_raw=3).map(lambda g: power(g, S.delta_norm() ** 2))


powered_elements = st.sampled_from(STRUCTURES).flatmap(powered_elements_of)


@settings(max_examples=30, deadline=None)
@given(g=powered_elements)
def test_summit_of_long_powers_matches_stepwise_renormalisation(g):
    sd = summit(g)
    assert (sd.representative, sd.witness) == reference_summit(g)


def push_front_cases_of(S):
    """(S, g, s): s is any simple, Delta and the identity included, or the
    left complement of g's first factor, which forms a Delta and empties the
    slot after it."""

    def with_simple(g):
        simples = st.sampled_from(S.enumerate_simples())
        if g.factors:
            simples = st.one_of(simples, st.just(S.left_complement(g.factors[0])))
        return st.tuples(st.just(S), st.just(g), simples)

    return normal_forms_of(S, max_raw=12, max_inf=0).flatmap(with_simple)


push_front_cases = st.sampled_from(STRUCTURES).flatmap(push_front_cases_of)


@settings(max_examples=300, deadline=None)
@given(case=push_front_cases)
def test_push_front_matches_full_renormalisation(case):
    S, g, s = case
    factors = list(g.factors)
    deltas = core._push_front(S, factors, s)
    result = Element(S, deltas, tuple(factors))
    validate_element(result)
    assert result == stack_normalize(S, 0, (s,) + g.factors)


@pytest.mark.parametrize("S", STRUCTURES, ids=lambda S: S.descriptor())
def test_push_front_of_a_left_complement_forms_a_delta_and_empties_a_slot(S):
    g = normalize(S, 0, random.Random(3).choices(S.enumerate_simples(), k=12))
    assert g.factors
    factors = list(g.factors)
    assert core._push_front(S, factors, S.left_complement(g.factors[0])) == 1
    assert factors == list(g.factors[1:])


@pytest.mark.parametrize(
    "S", STRUCTURES + [structure_from_descriptor("torus:4:6")], ids=lambda S: S.descriptor()
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_conjugate_matches_multiplication(S, data):
    # Each example also takes a bare Delta power, often with negative inf.
    hs = (
        data.draw(normal_forms_of(S)),
        delta_power_element(S, data.draw(st.integers(-3, 3))),
    )
    for h in hs:
        for c in S.enumerate_simples():
            if not c.atom_norm:
                continue
            c_elt = simple_element(c)
            result = conjugation_step(h, c)
            validate_element(result)
            assert result == multiply(multiply(invert(c_elt), h), c_elt)


def raw_lists_of(S):
    """Delta^r times raw simples, identity and Delta drawn as often as the rest."""
    simples = S.enumerate_simples()
    special = st.sampled_from((S.identity_simple(), S.delta()))
    raw = st.lists(st.one_of(st.sampled_from(simples), special), max_size=10)
    return st.tuples(st.integers(-3, 3), raw)


def raw_pairs_of(S):
    return st.tuples(st.just(S), raw_lists_of(S), raw_lists_of(S))


raw_pairs = st.sampled_from(STRUCTURES).flatmap(raw_pairs_of)


@settings(max_examples=200, deadline=None)
@given(case=raw_pairs)
def test_normalize_and_multiply_match_worklist_on_raw_lists(case):
    S, (r, raw), (q, raw2) = case
    g = normalize(S, r, raw)
    validate_element(g)
    assert g == stack_normalize(S, r, raw)
    h = normalize(S, q, raw2)
    twisted = [S.twist(q)[s] for s in raw]
    assert multiply(g, h) == stack_normalize(S, r + q, twisted + raw2)


def words_of(S):
    """Token words over the atoms of S with D^k anywhere, exponents in ±1..3."""
    names = [atom.name for atom in S.atoms()] + ["D"]
    exponent = st.sampled_from((-3, -2, -1, 1, 2, 3))
    terms = st.lists(st.tuples(st.sampled_from(names), exponent), max_size=8)
    return st.tuples(st.just(S), terms.map(tuple))


words = st.sampled_from(STRUCTURES).flatmap(words_of)


@settings(max_examples=200, deadline=None)
@given(case=words)
def test_parse_word_matches_token_by_token_evaluation(case):
    S, terms = case
    text = " ".join(f"{name}^{exponent}" for name, exponent in terms)
    g = cli.parse_word(S, text)
    validate_element(g)
    assert g == token_word_element(S, terms)


def simple_words_of(S):
    """Words of any simples, the identity and Delta included, with exponents in ±1..2."""
    letters = st.tuples(st.sampled_from(S.enumerate_simples()), st.sampled_from((-2, -1, 1, 2)))
    return st.tuples(st.just(S), st.lists(letters, max_size=8))


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(STRUCTURES).flatmap(simple_words_of))
def test_normalize_word_matches_letter_by_letter_products(case):
    S, word = case
    g = core.normalize_word(S, word)
    validate_element(g)
    expected = identity_element(S)
    for s, exponent in word:
        expected = multiply(expected, power(simple_element(s), exponent))
    assert g == expected


def test_parse_word_normalizes_once(monkeypatch):
    calls = {"normalize": 0, "multiply": 0, "power": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(core, "normalize")
    counted(core, "multiply")
    counted(core, "power")
    S = structure_from_descriptor("braid:4")
    cli.parse_word(S, "a1^3 D a2^-2 a3 D^-2 a1^-1 a3^2 D^3")
    assert calls == {"normalize": 1, "multiply": 0, "power": 0}
    assert not {"multiply", "power"} & set(vars(cli))


# ----------------------------------------------------------------------
# the engine at scale: long seeded raw lists and words on every family
# ----------------------------------------------------------------------


def long_raw(S, rng, n):
    """n raw simples: Delta, the identity, left complements and the right
    complement of the previous draw (which forms a Delta with it) each come
    about one time in eight, and any simple the rest of the time."""
    simples = S.enumerate_simples()
    raw = []
    for _ in range(n):
        roll = rng.randrange(8)
        if roll == 0:
            s = S.delta()
        elif roll == 1:
            s = S.identity_simple()
        elif roll == 2:
            s = S.left_complement(rng.choice(simples))
        elif roll == 3 and raw:
            s = S.right_complement(raw[-1])
        else:
            s = rng.choice(simples)
        raw.append(s)
    return raw


def assert_working_list(S, factors):
    """No Delta, no identity, every adjacent pair left-weighted."""
    validate_element(Element(S, 0, tuple(factors)))


by_descriptor = pytest.mark.parametrize("S", STRUCTURES, ids=lambda S: S.descriptor())


@by_descriptor
def test_normalize_and_multiply_match_worklist_on_long_raw_lists(S):
    rng = random.Random(f"long raw {S.descriptor()}")
    for _ in range(4):
        r, q = rng.randint(-3, 3), rng.randint(-3, 3)
        raw = long_raw(S, rng, rng.randint(0, 300))
        raw2 = long_raw(S, rng, rng.randint(0, 300))
        g = normalize(S, r, raw)
        validate_element(g)
        assert g == stack_normalize(S, r, raw)
        h = normalize(S, q, raw2)
        twisted = [S.twist(q)[s] for s in raw]
        assert multiply(g, h) == stack_normalize(S, r + q, twisted + raw2)


@by_descriptor
def test_push_and_push_front_split_off_every_delta(S):
    # Delta^r · L · s = Delta^(r+d) · tau^d(L') and s · L = Delta^d · L'.
    rng = random.Random(f"pushes {S.descriptor()}")
    simples = S.enumerate_simples()
    split = 0
    for _ in range(4):
        g = normalize(S, rng.randint(-2, 2), long_raw(S, rng, rng.randint(0, 300)))
        ends = (S.right_complement(g.factors[-1]), S.left_complement(g.factors[0])) if g.factors else ()
        for s in (S.delta(), S.identity_simple(), *ends, *rng.sample(simples, min(10, len(simples)))):
            factors = list(g.factors)
            deltas = core._push(S, factors, s) or 0
            assert_working_list(S, factors)
            back = Element(S, g.inf + deltas, tuple(S.twist(deltas)[f] for f in factors))
            assert back == stack_normalize(S, g.inf, g.factors + (s,))

            factors = list(g.factors)
            front_deltas = core._push_front(S, factors, s)
            assert_working_list(S, factors)
            front = Element(S, front_deltas, tuple(factors))
            assert front == stack_normalize(S, 0, (s,) + g.factors)
            split += deltas + front_deltas
    assert split


@by_descriptor
def test_cycle_and_conjugate_that_split_off_a_delta_match_multiply(S):
    rng = random.Random(f"steps {S.descriptor()}")
    simples = [s for s in S.enumerate_simples() if s.atom_norm]
    cycle_splits = conjugate_splits = 0
    for _ in range(30):
        h = normalize(S, rng.randint(-2, 2), long_raw(S, rng, rng.randint(1, 12)))
        if h.factors:
            cycled, a = cycling_step(h)
            assert_working_list(S, cycled.factors)
            a_elt = simple_element(a)
            assert cycled == multiply(multiply(invert(a_elt), h), a_elt)
            cycle_splits += cycled.inf > h.inf
        for c in rng.sample(simples, min(8, len(simples))):
            result = conjugation_step(h, c)
            validate_element(result)
            c_elt = simple_element(c)
            assert result == multiply(multiply(invert(c_elt), h), c_elt)
            # Delta^(p-1) · front · y · c with a Delta split off at both ends.
            conjugate_splits += result.inf == h.inf + 1
    assert cycle_splits and conjugate_splits


@pytest.mark.parametrize(
    "descriptor", ["braid:4", "torus:5:3", "product:(product:(braid:3,torus:2:3),braid:3)"]
)
def test_long_mixed_words_parse_as_token_by_token(descriptor):
    # 2,000 atom letters with exponent ±1 and a D^±1 about one token in 50.
    S = structure_from_descriptor(descriptor)
    rng = random.Random(f"words {descriptor}")
    names = [atom.name for atom in S.atoms()]
    terms = []
    while len(terms) < 2000:
        if rng.randrange(50) == 0:
            terms.append(("D", rng.choice((-1, 1))))
        terms.append((rng.choice(names), rng.choice((-1, 1))))
    text = " ".join(f"{name}^{exponent}" for name, exponent in terms)
    g = cli.parse_word(S, text)
    validate_element(g)
    assert g == token_word_element(S, tuple(terms))


@by_descriptor
def test_push_edge_cases(S):
    delta, identity = S.delta(), S.identity_simple()
    rng = random.Random(5)
    g = identity_element(S)
    while len(g.factors) < 2:
        g = normalize(S, 0, rng.choices(S.enumerate_simples(), k=12))
    for start in ([], list(g.factors)):
        # Pushing Delta only reports it; pushing the identity changes nothing.
        factors = list(start)
        assert core._push(S, factors, delta) == 1 and factors == start
        assert core._push_front(S, factors, delta) == 1 and factors == start
        assert core._push(S, factors, identity) is None and factors == start
        assert core._push_front(S, factors, identity) == 0 and factors == start
    # Onto an empty list, a proper simple is the list.
    a = S.atom_simple(0)
    for push in (core._push, core._push_front):
        factors = []
        push(S, factors, a)
        assert factors == [a]
    # The last factor times its right complement slides to (Delta, identity):
    # the Delta is reported, the identity popped, and nothing else moves.
    factors = list(g.factors)
    assert core._push(S, factors, S.right_complement(g.factors[-1])) == 1
    assert factors == list(g.factors[:-1])
    factors = [a]
    assert core._push(S, factors, S.right_complement(a)) == 1
    assert factors == []


@by_descriptor
def test_push_ends_edge_cases(S):
    delta, identity = S.delta(), S.identity_simple()
    d = simple_element(delta)
    rng = random.Random(f"ends {S.descriptor()}")
    for _ in range(4):
        h = normalize(S, rng.randint(-2, 2), long_raw(S, rng, rng.randint(0, 30)))
        # The identity at both ends changes neither the list nor inf.
        same = push_ends(S, h.inf, h.factors, identity, identity)
        assert same == h == multiply(h, identity_element(S))
        # A Delta in front adds 1 to inf and twists nothing: Delta^r · Delta · y.
        front = push_ends(S, h.inf, h.factors, delta, identity)
        assert (front.inf, front.factors) == (h.inf + 1, h.factors)
        assert front == multiply(d, h)
        # A Delta behind adds 1 to inf and twists the list by tau: y · Delta = Delta · tau(y).
        back = push_ends(S, h.inf, h.factors, identity, delta)
        assert (back.inf, back.factors) == (h.inf + 1, tuple(S.twist(1)[f] for f in h.factors))
        assert back == multiply(h, d)
