"""The join and minimal simples against brute force over all simples.

`S.join` is checked against the least common right multiple found among
all simples, `_min_simple` against the least valid conjugator found among
all simples, and `_sss_closure`, which conjugates by minimal simples only,
against `oracle.brute_sss_closure`, which conjugates by every simple.
Divisibility in the oracles is decided by element arithmetic (a ≼ c exactly
when a^{-1} c is positive), not by the join or the minimal simples under
audit.  Each parent link (h, c) of the closure is checked to give
c^{-1} · h · c = element, and the links are checked against
`oracle.eager_sss_closure`, which multiplies out every conjugate and
witness as it goes: same elements in the same order, the same witness
rebuilt from the links by `oracle.link_witness`, and the cap hit at the
same element.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import (
    BraidStructure,
    invert,
    multiply,
    simple_element,
    structure_from_descriptor,
    summit,
    super_summit_set,
)
from garside.cli import parse_word
from garside.conjugacy import DEFAULT_SSS_CAP, ResourceLimitError, _min_simple, _sss_closure

from .conftest import assert_conjugate_by, elements_of
from .oracle import brute_sss_closure, eager_sss_closure, link_witness
from .test_repair_paths import STRUCTURES

NESTED = "product:(product:(braid:3,torus:2:3),braid:3)"
JOIN_SAMPLE = 3_000


@functools.cache
def divisors(S):
    """For each simple, in enumeration order, the indices of its left divisors."""
    simples = S.enumerate_simples()
    return [
        frozenset(
            i for i, a in enumerate(simples)
            if multiply(invert(simple_element(a)), simple_element(c)).inf >= 0
        )
        for c in simples
    ]


def least(S, members):
    """The simple, among the indexed members, that left-divides every other member."""
    simples, table = S.enumerate_simples(), divisors(S)
    low = min(members, key=lambda j: simples[j].atom_norm)
    assert all(low in table[j] for j in members)
    return simples[low]


def conjugate_bounds(x, c):
    """(inf, sup) of c^{-1} x c."""
    c_elt = simple_element(c)
    y = multiply(multiply(invert(c_elt), x), c_elt)
    return y.inf, y.sup


def assert_links_conjugate(closure, rep):
    """The closure is a tree of parent links rooted at rep: each element
    but rep has a link (h, c) to an earlier element h, and c^{-1} · h · c
    is the element, so the conjugators on its chain conjugate rep to it."""
    position = {h: i for i, h in enumerate(closure)}
    assert position[rep] == 0 and closure[rep] is None
    for element, link in list(closure.items())[1:]:
        h, c = link
        assert position[h] < position[element]
        assert_conjugate_by(simple_element(c), h, element)


summit_representatives = st.sampled_from(STRUCTURES).flatmap(
    lambda S: elements_of(S, max_letters=5, max_inf=1)
).map(lambda g: summit(g).representative)


@pytest.mark.parametrize(
    "descriptor",
    ["braid:3", "braid:4", "torus:5:3", "torus:2:3", "product:(braid:3,torus:2:3)", "braid:5", NESTED],
)
def test_join_is_least_common_right_multiple(descriptor):
    # All pairs where there are at most JOIN_SAMPLE, else a seeded sample.
    S = structure_from_descriptor(descriptor)
    simples, table = S.enumerate_simples(), divisors(S)
    pairs = list(itertools.product(range(len(simples)), repeat=2))
    if len(pairs) > JOIN_SAMPLE:
        pairs = random.Random(41).sample(pairs, JOIN_SAMPLE)
    for i, k in pairs:
        common = [j for j, divs in enumerate(table) if i in divs and k in divs]
        assert S.join(simples[i], simples[k]) == least(S, common)


@settings(max_examples=60, deadline=None)
@given(x=summit_representatives)
def test_min_simple_is_least_conjugator_keeping_summit(x):
    S = x.structure
    simples, table = S.enumerate_simples(), divisors(S)
    x_inv = invert(x)
    keeps = [j for j, c in enumerate(simples) if conjugate_bounds(x, c) == (x.inf, x.sup)]
    # The climb reaches the least such simple from any start, not only an atom.
    for i, s in enumerate(simples):
        assert _min_simple(x, x_inv, s) == least(S, [j for j in keeps if i in table[j]])


@settings(max_examples=60, deadline=None)
@given(rep=summit_representatives)
def test_sss_closure_matches_conjugation_by_every_simple(rep):
    closure = _sss_closure(rep, DEFAULT_SSS_CAP)
    assert set(closure) == set(brute_sss_closure(rep))
    assert_links_conjugate(closure, rep)


@pytest.mark.parametrize("S", STRUCTURES, ids=lambda S: S.descriptor())
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sss_closure_matches_eager_closure(S, data):
    rep = summit(data.draw(elements_of(S, max_letters=5, max_inf=1))).representative
    closure = _sss_closure(rep, DEFAULT_SSS_CAP)
    eager = eager_sss_closure(rep, DEFAULT_SSS_CAP)
    assert list(closure) == list(eager)
    for element, witness in eager.items():
        assert link_witness(closure, element) == witness
    size = len(eager)
    for cap in range(1, size + 1):
        for build in (_sss_closure, eager_sss_closure):
            if cap < size:
                with pytest.raises(ResourceLimitError):
                    build(rep, cap)
            else:
                assert len(build(rep, cap)) == size


def test_braid7_super_summit_set():
    B7 = BraidStructure(7)
    g = parse_word(B7, "a1 a2 a3 a4 a5 a6 a6 a5 a4 a3 a2 a1")
    sd = summit(g)
    sss = super_summit_set(g)
    assert 1 < len(sss) <= 4
    assert set(sss) == set(brute_sss_closure(sd.representative))
    for element in sss:
        assert (element.inf, element.sup) == (sd.inf_s, sd.sup_s)
        assert_conjugate_by(sd.conjugator_to(element), g, element)
