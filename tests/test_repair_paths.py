"""Junction-repair paths against full renormalisation.

`invert` reads its normal form off directly, and `cycling` and `decycling`
repair a single junction through `multiply`.  Each is checked against a
reference: `normalize` of the whole raw factor sequence, with every adjacent
pair marked dirty.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from garside import (
    cycling,
    decycling,
    invert,
    normalize,
    structure_from_descriptor,
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


def reference_invert(g):
    S = g.structure
    r, k = g.inf, len(g.factors)
    raw = [
        S.tau_power(S.right_complement(g.factors[i]), -(r + i + 1))
        for i in range(k - 1, -1, -1)
    ]
    return normalize(S, -(r + k), raw)


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
