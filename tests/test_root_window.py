"""The root search scans one (inf, sup) window.

A root h of g of degree n has t_inf(h) = t_inf(g)/n and t_sup(h) =
t_sup(g)/n, each a rational with denominator at most N, and its super
summit set sits at inf = floor(t_inf(h)) and sup = ceil(t_sup(h)).  So
`_root_search` rejects n when either quotient fails the bound and otherwise
scans that one window.  It is checked against
`oracle.windowed_root_search`, which scans every window that homogeneity
alone allows, on the families of `test_repair_paths` and `braid:2`, and by
counting the candidate sequences it asks for on catalog instances.
"""

from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import (
    invert,
    multiply,
    power,
    problems,
    solve_root_conjugacy,
    structure_from_descriptor,
    summit,
    translation_triple,
)
from garside.cli import parse_word

from .oracle import windowed_root_search
from .test_repair_paths import STRUCTURES, normal_forms_of

FAMILIES = [structure_from_descriptor("braid:2"), *STRUCTURES]


def root_queries_of(S):
    """(g, n) with g random or planted as x^-1 · h^n · x, so roots occur."""
    small = normal_forms_of(S, max_raw=2, max_inf=1)
    degree = st.sampled_from((2, 3))
    planted = st.builds(
        lambda h, x, n: (multiply(multiply(invert(x), power(h, n)), x), n), small, small, degree
    )
    return st.one_of(st.tuples(small, degree), planted)


@settings(max_examples=120, deadline=None)
@given(query=st.sampled_from(FAMILIES).flatmap(root_queries_of))
def test_one_window_search_matches_every_window_search(query):
    g, n = query
    triple, sd = translation_triple(g), summit(g)
    answer = problems._root_search(triple, sd, n)
    reference = windowed_root_search(triple, sd, n)
    assert (answer.outcome, answer.n, answer.root, answer.witness) == (
        reference.outcome, reference.n, reference.root, reference.witness
    )


@settings(max_examples=150, deadline=None)
@given(g=st.sampled_from(FAMILIES).flatmap(lambda S: normal_forms_of(S, max_raw=6)))
def test_summit_values_are_the_rounded_translation_limits(g):
    sd, triple = summit(g), translation_triple(g)
    assert sd.inf_s == floor(triple.t_inf)
    assert sd.sup_s == ceil(triple.t_sup)


def counting_sequences(monkeypatch):
    """The lengths asked of `problems.factor_sequences` and the sequences it yields."""
    lengths, yielded = [], []
    original = problems.factor_sequences

    def wrapper(S, length):
        lengths.append(length)
        for factors in original(S, length):
            yielded.append(factors)
            yield factors

    monkeypatch.setattr(problems, "factor_sequences", wrapper)
    return lengths, yielded


# Catalog negatives where t_inf(g)/n has a denominator above N while
# t_D(g)/n stays within N^2.
@pytest.mark.parametrize(
    "desc, n, word", [("braid:4", 3, "D a2 a3 a2 a1"), ("braid:3", 3, "D^-1 a1 a2 a2 a1 a1")]
)
def test_degree_with_a_large_limit_denominator_scans_nothing(monkeypatch, desc, n, word):
    S = structure_from_descriptor(desc)
    g = parse_word(S, word)
    N = S.delta_norm()
    triple = translation_triple(g)
    assert (triple.t_inf / n).denominator > N
    assert (triple.t_D / n).denominator <= N * N
    lengths, yielded = counting_sequences(monkeypatch)
    assert solve_root_conjugacy(g, n).is_no_solution
    assert (lengths, yielded) == ([], [])


# Catalog negatives with integral t_inf(g)/n, where homogeneity alone allows
# two infima; the second has t_sup(g)/n integral too, so two suprema.
@pytest.mark.parametrize(
    "desc, n, word, length",
    [("braid:3", 2, "D a1 a2 a2 a1", 1), ("torus:5:3", 2, "x x x y y", 1)],
)
def test_integral_limit_enumerates_one_length(monkeypatch, desc, n, word, length):
    S = structure_from_descriptor(desc)
    g = parse_word(S, word)
    assert (translation_triple(g).t_inf / n).denominator == 1
    lengths, yielded = counting_sequences(monkeypatch)
    assert solve_root_conjugacy(g, n).is_no_solution
    assert lengths == [length]
    assert yielded
