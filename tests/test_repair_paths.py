"""Junction-repair paths against full renormalisation.

`invert` reads its normal form off directly, `multiply` twists the left
factors only when tau^{h.inf} is not the identity, and `cycling` and
`decycling` repair a single junction through `multiply`.  Each is checked
against a reference: `normalize` of the whole raw factor sequence, with
every adjacent pair marked dirty.  The summit witness, assembled on first
read from the recorded conjugators, is checked against the product grown
one step at a time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from garside import (
    cycling,
    decycling,
    identity_element,
    invert,
    multiply,
    normalize,
    simple_element,
    structure_from_descriptor,
    summit,
    validate_element,
)

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
    return normalize(S, -(r + k), raw)


def reference_multiply(g, h):
    S = g.structure
    return normalize(S, g.inf + h.inf, tuple(S.tau_power(s, h.inf) for s in g.factors) + h.factors)


def reference_summit(g):
    """Summit representative and witness, the witness grown by one multiply per step."""
    S = g.structure
    window = S.delta_norm()
    h = g
    witness = identity_element(S)

    fails = 0
    while fails < window and h.factors:
        h2, a = cycling(h)
        fails = 0 if h2.inf > h.inf else fails + 1
        witness = multiply(witness, simple_element(a))
        h = h2

    fails = 0
    while fails < window and h.factors:
        h2, s = decycling(h)
        fails = 0 if h2.sup < h.sup else fails + 1
        witness = multiply(witness, invert(simple_element(s)))
        h = h2

    return h, witness


def reference_cycling(g):
    S = g.structure
    a = S.tau_power(g.factors[0], -g.inf)
    return normalize(S, g.inf, g.factors[1:] + (a,)), a


def reference_decycling(g):
    S = g.structure
    s = g.factors[-1]
    return normalize(S, g.inf, (S.tau_power(s, g.inf),) + g.factors[:-1]), s


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
