"""Shared fixtures, hypothesis strategies and independent test oracles."""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import strategies as st

from garside import (
    BraidStructure,
    Element,
    GarsideStructure,
    ProductStructure,
    Simple,
    TorusStructure,
    multiply,
    power,
    simple_element,
)

# ----------------------------------------------------------------------
# independent permutation arithmetic (same left-to-right convention as the
# braid structure, written from scratch so braid tests audit a second path)
# ----------------------------------------------------------------------


def perm_mul(a, b):
    """Apply a, then b."""
    return tuple(b[a[i]] for i in range(len(a)))


def perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_len(p):
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def perm_left_divides(a, b):
    return perm_len(a) + perm_len(perm_mul(perm_inv(a), b)) == perm_len(b)


# ----------------------------------------------------------------------
# generic divisor oracle: t <=_L s iff t·u = s for some simple u, decided
# with element arithmetic only (never the meet under audit)
# ----------------------------------------------------------------------


@functools.cache
def simple_divisors(S: GarsideStructure, s: Simple) -> frozenset[Simple]:
    target = simple_element(s)
    out = set()
    for t in S.enumerate_simples():
        t_elt = simple_element(t)
        for u in S.enumerate_simples():
            if multiply(t_elt, simple_element(u)) == target:
                out.add(t)
                break
    return frozenset(out)


# ----------------------------------------------------------------------
# structures under test
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def b3():
    return BraidStructure(3)


@pytest.fixture(scope="session")
def b4():
    return BraidStructure(4)


@pytest.fixture(scope="session")
def torus53():
    return TorusStructure(5, 3)


@pytest.fixture(scope="session")
def torus23_sq():
    H = TorusStructure(2, 3)
    return ProductStructure(H, H)


def atom_elements(S: GarsideStructure) -> list[Element]:
    return [simple_element(S.atom_simple(i)) for i in range(len(S.atoms()))]


def element_from_letters(S: GarsideStructure, letters, inf_shift: int = 0) -> Element:
    """Build an element from signed atom letters plus a Delta shift."""
    atoms = atom_elements(S)
    g = Element(S, inf_shift, ())
    for index, sign in letters:
        g = multiply(g, power(atoms[index], sign))
    return g


def elements_of(S: GarsideStructure, max_letters: int = 6, max_inf: int = 2):
    """Hypothesis strategy for elements built from random atom words."""
    atom_count = len(S.atoms())
    letters = st.lists(
        st.tuples(st.integers(0, atom_count - 1), st.sampled_from((1, -1))),
        max_size=max_letters,
    )
    return st.builds(element_from_letters, st.just(S), letters, st.integers(-max_inf, max_inf))


def random_word_element(S: GarsideStructure, rng: random.Random, max_letters=6, max_inf=2) -> Element:
    atom_count = len(S.atoms())
    letters = [
        (rng.randrange(atom_count), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_letters))
    ]
    return element_from_letters(S, letters, rng.randint(-max_inf, max_inf))


def assert_conjugate_by(witness: Element, g: Element, h: Element) -> None:
    """Verify w^{-1} · g · w = h by direct multiplication."""
    from garside import invert

    assert multiply(multiply(invert(witness), g), witness) == h
