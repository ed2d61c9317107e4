"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every expected value is exact (rational or integer equality);
the few criteria with runtime budgets assert them.
"""

import random
import time
from fractions import Fraction

import pytest

from garside import (
    braid_structure,
    invert,
    multiply,
    power,
    product_structure,
    solve_generalized_power,
    solve_power,
    solve_proper_power_conjugacy,
    solve_root_conjugacy,
    straightness,
    summit,
    torus_structure,
    translation_number,
    translation_triple,
    word_length,
)
from garside.cli import parse_word
from garside.core import Element
from garside.enumeration import sample_element

from .conftest import assert_conjugate_by
from .oracle import bfs_word_length, brute_summit_inf, recursive_factor_sequences

B3 = braid_structure(3)
B4 = braid_structure(4)
T53 = torus_structure(5, 3)
T43 = torus_structure(4, 3)
PROD = product_structure(torus_structure(2, 3), torus_structure(2, 3))


@pytest.fixture(scope="module")
def sample500():
    rng = random.Random(2024)
    sample = [sample_element(B3, rng, max_inf=2, max_len=3) for _ in range(300)]
    sample += [sample_element(B4, rng, max_inf=2, max_len=3) for _ in range(200)]
    return sample


def _passline(k, text):
    print(f"\nACCEPTANCE {k} PASS — {text}")


def test_criterion_1_torus_translation_fixture():
    start = time.monotonic()
    x = parse_word(T53, "x")
    triple = translation_triple(x)
    assert triple.t_inf == Fraction(1, 5)
    assert triple.t_sup == Fraction(1, 5)
    assert translation_number(x) == Fraction(1, 5)
    assert straightness(x)[:2] == (False, False)
    for k in range(1, 5):
        assert power(x, k).inf == 0 == k * x.inf
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _passline(1, f"torus(5,3): t_inf=t_sup=t_D=1/5, not straight ({elapsed:.2f}s)")


def test_criterion_2_product_translation_fixture():
    start = time.monotonic()
    assert PROD.delta_norm() == 6
    g = parse_word(PROD, "L.x R.y")
    triple = translation_triple(g)
    assert (triple.t_inf, triple.t_sup, triple.t_len) == (
        Fraction(1, 3), Fraction(1, 2), Fraction(1, 6),
    )
    h = parse_word(PROD, "L.x^-1 R.y")
    td = translation_number(h)
    assert td == Fraction(5, 6)
    assert td.denominator == (6 // 2) * (6 // 2 - 1)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"
    _passline(2, f"torus(2,3)^2: triple=(1/3,1/2,1/6), t_D(x^-1,y)=5/6 ({elapsed:.2f}s)")


def test_criterion_3_denominator_and_positivity_bounds(sample500):
    start = time.monotonic()
    assert len(sample500) >= 500
    violations = 0
    for g in sample500:
        N = g.structure.delta_norm()
        triple = translation_triple(g)
        td = translation_number(g)
        if triple.t_inf.denominator > N or triple.t_sup.denominator > N:
            violations += 1
        if td.denominator > N * N:
            violations += 1
        if not g.is_identity and td < Fraction(1, N):
            violations += 1
        frac = triple.t_inf - (triple.t_inf.numerator // triple.t_inf.denominator)
        if 0 < frac < Fraction(1, N):
            violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 300, f"criterion 3 took {elapsed:.1f}s"
    _passline(3, f"denominator/positivity/gap bounds on {len(sample500)} elements, "
                 f"0 violations ({elapsed:.1f}s)")


def test_criterion_4_homogeneity_and_invariance(sample500):
    start = time.monotonic()
    rng = random.Random(4096)
    for g in sample500:
        t = translation_triple(g)
        for k in (2, 3, 5):
            tk = translation_triple(power(g, k))
            assert tk.t_inf == k * t.t_inf
            assert tk.t_sup == k * t.t_sup
        h = sample_element(g.structure, rng, max_inf=2, max_len=3)
        conj = multiply(multiply(invert(h), g), h)
        assert translation_number(conj) == translation_number(g)
    elapsed = time.monotonic() - start
    _passline(4, f"t_inf(g^k)=k·t_inf(g) for k in 2,3,5 and conjugacy invariance "
                 f"on {len(sample500)} elements ({elapsed:.1f}s)")


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for inf in (-1, 0, 1):
        for length in (0, 1, 2):
            for factors in recursive_factor_sequences(B3, length):
                g = Element(B3, inf, factors)
                assert bfs_word_length(g, cap=8) == word_length(g)
                checked += 1
    for inf in range(-2, 3):
        for length in (0, 1, 2):
            for factors in recursive_factor_sequences(T43, length):
                g = Element(T43, inf, factors)
                assert bfs_word_length(g, cap=8) == word_length(g)
                checked += 1

    rng = random.Random(55)
    curated = 0
    for S in (B3, T43):
        for _ in range(25):
            g = sample_element(S, rng, max_inf=1, max_len=2)
            assert brute_summit_inf(g, 6) == summit(g).inf_s
            curated += 1
    elapsed = time.monotonic() - start
    _passline(5, f"BFS word length on {checked} exhaustive elements and summit "
                 f"oracle on {curated} curated elements ({elapsed:.1f}s)")


def test_criterion_6_case_split_and_quotient(sample500):
    start = time.monotonic()
    for g in sample500:
        sd = summit(g)
        triple = translation_triple(g)
        if sd.inf_s >= 0:
            expected = triple.t_sup
        elif sd.sup_s <= 0:
            expected = -triple.t_inf
        else:
            expected = triple.t_sup - triple.t_inf
        assert translation_number(g) == expected
    assert B3.tau_order() == 2
    assert translation_triple(parse_word(B3, "a1")).t_len == 1
    elapsed = time.monotonic() - start
    _passline(6, f"case split and quotient identity on {len(sample500)} elements; "
                 f"B3 m0=2, quotient t_D(a1)=1 ({elapsed:.1f}s)")


def _nonidentity_sample(S, rng, max_inf, max_len):
    g = sample_element(S, rng, max_inf=max_inf, max_len=max_len)
    while g.is_identity:
        g = sample_element(S, rng, max_inf=max_inf, max_len=max_len)
    return g


def test_criterion_7_solver_round_trips():
    start = time.monotonic()
    rng = random.Random(777)

    mix = [B3] * 60 + [T53] * 20 + [B4] * 20
    for S in mix:
        h = _nonidentity_sample(S, rng, 1, 2)
        x = sample_element(S, rng, max_inf=1, max_len=2)
        n = rng.choice((2, 3, 4))
        g = multiply(multiply(invert(x), power(h, n)), x)
        answer = solve_power(g, h, up_to_conjugacy=True)
        assert answer.is_solution and abs(answer.n) == n
        assert_conjugate_by(answer.witness, power(h, answer.n), g)

    for S in mix:
        h = _nonidentity_sample(S, rng, 1, 2)
        n = rng.choice((2, 3, 4))
        g = power(h, n)
        answer = solve_proper_power_conjugacy(g)
        assert answer.is_solution and answer.n >= 2
        assert_conjugate_by(answer.witness, power(answer.root, answer.n), g)

    fixture = solve_generalized_power(
        power(parse_word(B3, "a1 a2"), 2), power(parse_word(B3, "a1 a2"), 3)
    )
    assert (fixture.n, fixture.m) == (18, 12)
    assert power(power(parse_word(B3, "a1 a2"), 2), 18) == power(power(parse_word(B3, "a1 a2"), 3), 12)
    for i, S in enumerate([B3] * 60 + [B4] * 39):
        w = _nonidentity_sample(S, rng, 1, 2)
        a, b = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        g, h = power(w, a), power(w, b)
        conjugacy_mode = i % 3 == 0
        answer = solve_generalized_power(g, h, up_to_conjugacy=conjugacy_mode)
        assert answer.is_solution
        if conjugacy_mode:
            assert_conjugate_by(answer.witness, power(g, answer.n), power(h, answer.m))
        else:
            assert power(g, answer.n) == power(h, answer.m)

    elapsed = time.monotonic() - start
    assert elapsed < 300, f"criterion 7 took {elapsed:.1f}s"
    _passline(7, f"100 power-conjugacy, 100 proper-power, 100 generalized-power "
                 f"instances, all certificates verified ({elapsed:.1f}s)")


def test_criterion_8_negative_instances():
    assert not solve_root_conjugacy(parse_word(B3, "a1"), 2).is_solution
    assert not solve_proper_power_conjugacy(parse_word(B3, "a1")).is_solution

    assert not solve_power(parse_word(B3, "a1"), parse_word(B3, "a2")).is_solution
    conj = solve_power(parse_word(B3, "a1"), parse_word(B3, "a2"), up_to_conjugacy=True)
    assert conj.n == 1
    _passline(8, "root(a1,2) and properpower(a1) prove NoSolution; "
                 "power(a1,a2) splits equality vs conjugacy")
