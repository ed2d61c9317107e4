"""Repair paths against a worklist renormalisation.

`_push` and `_push_front` are the two ends of one domino-rule repair:
`normalize` and `multiply` push simples onto the back of a left-weighted
list one leftward slide pass at a time, and `_push_front` prepends one
with a rightward pass.  `invert` reads its normal form off directly,
`multiply` twists the left factors only when tau^{h.inf} is not the
identity, `summit` cycles and decycles on one working list with one push
at either end, `cycling` and `decycling` are single steps of it, and
`parse_word` normalizes a whole token word once.  Each is checked against
`oracle.stack_normalize` of the whole raw factor sequence, with every
adjacent pair marked dirty, or against the word evaluated one token at a
time.  The summit representative and witness, the witness assembled on
first read from the recorded conjugators, are checked against a summit
that renormalises the whole word at every step and grows the witness one
step at a time, also on the long words g^(N^2) that `tnum` summits.
`_conjugate`, which forms c^{-1} h c with one push at each end of one
list, is checked against two `multiply` calls and an `invert`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import (
    cycling,
    decycling,
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
from garside.conjugacy import _conjugate

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
        S.tau_power(S.right_complement(g.factors[i]), -(r + i + 1))
        for i in range(k - 1, -1, -1)
    ]
    return stack_normalize(S, -(r + k), raw)


def reference_multiply(g, h):
    S = g.structure
    return stack_normalize(
        S, g.inf + h.inf, tuple(S.tau_power(s, h.inf) for s in g.factors) + h.factors
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
    a = S.tau_power(g.factors[0], -g.inf)
    return stack_normalize(S, g.inf, g.factors[1:] + (a,)), a


def reference_decycling(g):
    S = g.structure
    s = g.factors[-1]
    return stack_normalize(S, g.inf, (S.tau_power(s, g.inf),) + g.factors[:-1]), s


@settings(max_examples=150, deadline=None)
@given(g=elements)
def test_invert_matches_full_renormalisation(g):
    inv = invert(g)
    validate_element(inv)
    assert inv == reference_invert(g)


@settings(max_examples=150, deadline=None)
@given(g=elements)
def test_cycling_and_decycling_match_full_renormalisation(g):
    identity = g.structure.identity_simple()
    for step, reference in ((cycling, reference_cycling), (decycling, reference_decycling)):
        result, conjugator = step(g)
        validate_element(result)
        if g.factors:
            assert (result, conjugator) == reference(g)
        else:
            assert (result, conjugator) == (g, identity)


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
    """(S, Delta run length, g, s): s is any simple but the identity, or the
    left complement of g's first factor, which forms a Delta and empties the
    slot after it."""

    def with_simple(g):
        simples = st.sampled_from([s for s in S.enumerate_simples() if s.atom_norm])
        if g.factors:
            simples = st.one_of(simples, st.just(S.left_complement(g.factors[0])))
        return st.tuples(st.just(S), st.integers(0, 2), st.just(g), simples)

    return normal_forms_of(S, max_raw=12, max_inf=0).flatmap(with_simple)


push_front_cases = st.sampled_from(STRUCTURES).flatmap(push_front_cases_of)


@settings(max_examples=300, deadline=None)
@given(case=push_front_cases)
def test_push_front_matches_full_renormalisation(case):
    S, deltas, g, s = case
    run = (S.delta(),) * deltas
    factors = list(run + g.factors)
    core._push_front(S, factors, s)
    result = core._finalize(S, 0, factors)
    validate_element(result)
    assert result == stack_normalize(S, 0, (s,) + run + g.factors)


@pytest.mark.parametrize("S", STRUCTURES, ids=lambda S: S.descriptor())
def test_push_front_of_a_left_complement_forms_a_delta_and_empties_a_slot(S):
    g = normalize(S, 0, random.Random(3).choices(S.enumerate_simples(), k=12))
    assert g.factors
    factors = list(g.factors)
    core._push_front(S, factors, S.left_complement(g.factors[0]))
    assert factors == [S.delta(), *g.factors[1:]]


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
            result = _conjugate(S, h, c)
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
    twisted = [S.tau_power(s, q) for s in raw]
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


def test_parse_word_normalizes_once(monkeypatch):
    calls = {"normalize": 0, "multiply": 0, "power": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "normalize")
    counted(core, "multiply")
    counted(core, "power")
    S = structure_from_descriptor("braid:4")
    cli.parse_word(S, "a1^3 D a2^-2 a3 D^-2 a1^-1 a3^2 D^3")
    assert calls == {"normalize": 1, "multiply": 0, "power": 0}
    assert not {"multiply", "power"} & set(vars(cli))
