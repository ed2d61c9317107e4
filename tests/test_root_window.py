"""The root search scans one (inf, sup) window.

A root h of g of degree n has t_inf(h) = t_inf(g)/n and t_sup(h) =
t_sup(g)/n, each a rational with denominator at most N, and its super
summit set sits at inf = floor(t_inf(h)) and sup = ceil(t_sup(h)).  So
`_root_search` rejects n when either quotient fails the bound and otherwise
scans that one window.  It is checked against
`oracle.windowed_root_search`, which scans every window that homogeneity
alone allows, on the families of `test_repair_paths` and `braid:2`, and by
counting the candidate sequences it asks for on catalog instances.

The proper-power search stops at degree N^2·t_len(g) when t_len(g) > 0,
since a positive t_len(h) = t_len(g)/n is a difference of two limits with
denominators at most N.  It is checked against
`oracle.every_degree_proper_power`, which tries every degree up to
N·t_D(g), by counting the degrees it tries on two large-exponent
negatives, and on a product whose root degree exceeds N·t_len(g).
"""

from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import (
    degree,
    delta_power_element,
    invert,
    multiply,
    power,
    problems,
    solve_proper_power_conjugacy,
    solve_root_conjugacy,
    structure_from_descriptor,
    summit,
    translation_triple,
)
from garside.cli import parse_word

from .oracle import every_degree_proper_power, windowed_root_search
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
    assert (answer.is_solution, answer.n, answer.root, answer.witness) == (
        reference.is_solution, reference.n, reference.root, reference.witness
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

    def wrapper(S, length, *target):
        lengths.append(length)
        for factors in original(S, length, *target):
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
    assert not solve_root_conjugacy(g, n).is_solution
    assert (lengths, yielded) == ([], [])


# Catalog negatives with integral t_inf(g)/n whose degree (7 and 19) is
# odd, so no square root exists and nothing is enumerated.
@pytest.mark.parametrize(
    "desc, n, word", [("braid:3", 2, "D a1 a2 a2 a1"), ("torus:5:3", 2, "x x x y y")]
)
def test_indivisible_degree_scans_nothing(monkeypatch, desc, n, word):
    S = structure_from_descriptor(desc)
    g = parse_word(S, word)
    assert (translation_triple(g).t_inf / n).denominator == 1
    assert any(d % n for d in degree(g))
    lengths, yielded = counting_sequences(monkeypatch)
    assert not solve_root_conjugacy(g, n).is_solution
    assert (lengths, yielded) == ([], [])


# Negatives with integral t_inf(g)/n and a degree divisible by n, where
# homogeneity alone allows two infima; both have t_sup(g)/n integral too,
# so two suprema.
@pytest.mark.parametrize(
    "desc, n, word, length",
    [("braid:3", 2, "D a2 a2 a2 a1 a2", 1), ("torus:5:3", 2, "x x y x y x", 2)],
)
def test_integral_limit_enumerates_one_length(monkeypatch, desc, n, word, length):
    S = structure_from_descriptor(desc)
    g = parse_word(S, word)
    assert (translation_triple(g).t_inf / n).denominator == 1
    assert not any(d % n for d in degree(g))
    lengths, yielded = counting_sequences(monkeypatch)
    assert not solve_root_conjugacy(g, n).is_solution
    assert lengths == [length]
    assert yielded


def proper_power_queries_of(S):
    """Delta^k times a small normal form, 0 < |k| <= 12, one time in three
    raised to the power 2 or 3, so that solutions occur.

    The normal form has up to two simples, or one on the nested product,
    whose 180 simples make a root window of length two cost seconds.
    """
    k = st.integers(1, 12).flatmap(lambda k: st.sampled_from((k, -k)))
    max_raw = 2 if len(S.enumerate_simples()) < 100 else 1
    g = st.builds(multiply, st.builds(delta_power_element, st.just(S), k),
                  normal_forms_of(S, max_raw=max_raw, max_inf=0))
    return st.one_of(g, g, st.builds(power, g, st.sampled_from((2, 3))))


@settings(max_examples=200, deadline=None)
@given(g=st.sampled_from(FAMILIES).flatmap(proper_power_queries_of))
def test_proper_power_matches_every_degree_search(g):
    answer = solve_proper_power_conjugacy(g)
    reference = every_degree_proper_power(g)
    assert (answer.is_solution, answer.n, answer.root, answer.witness) == (
        reference.is_solution, reference.n, reference.root, reference.witness
    )


# Proper-power negatives with a large Delta exponent: N·t_D is above 10^5,
# while a positive t_len(h) = t_len(g)/n is at least 1/N^2.
@pytest.mark.parametrize("word", ["D^100000 a1^2 a2^-1", "D^300001 a1 a1 a2"])
def test_proper_power_degrees_stop_at_the_t_len_bound(monkeypatch, word):
    S = structure_from_descriptor("braid:3")
    g = parse_word(S, word)
    N = S.delta_norm()
    triple = translation_triple(g)
    assert N * triple.t_D > 100_000
    assert triple.t_len > 0
    degrees = []
    original = problems._root_search

    def counting(triple, sd, n):
        degrees.append(n)
        return original(triple, sd, n)

    monkeypatch.setattr(problems, "_root_search", counting)
    assert not solve_proper_power_conjugacy(g).is_solution
    assert len(degrees) <= floor(N * N * triple.t_len) - 1


def test_proper_power_degree_above_n_times_t_len():
    # t_len(L.x R.y) = 1/5 - 1/6 = 1/30 is below 1/N, so the square of it
    # has a root of degree 2 > N·t_len(g): the bound needs its N^2.
    S = structure_from_descriptor("product:(torus:5:3,torus:4:6)")
    g = parse_word(S, "L.x^2 R.y^2")
    N = S.delta_norm()
    assert N * translation_triple(g).t_len < 2
    answer = solve_proper_power_conjugacy(g)
    assert (answer.is_solution, answer.n) == (True, 2)
