"""Summits that pay only for what they decide.

The witness of `summit(g)` is normalized as one word on first read,
`summit(x, target=sd)` stops as soon as the invariants of x are known to
differ from those of sd, and a class comparison whose class invariants
differ makes no summit at all.  These are checked against the plain
summit on the families of `test_repair_paths`, and by counting the
normalizations and summits they need.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from garside import (
    BraidStructure,
    GarsideStructure,
    are_conjugate,
    class_invariant,
    conjugacy,
    invert,
    multiply,
    problems,
    solve_power,
    summit,
)
from garside.cli import parse_word, run_command
from garside.enumeration import factor_sequences, followers, proper_simples
from garside.translation import translation_number

from .conftest import assert_conjugate_by
from .test_repair_paths import STRUCTURES, normal_forms_of


def summit_pairs_of(S):
    """(x, y) with y random or a conjugate of x, so both outcomes occur."""
    x = normal_forms_of(S)

    def with_partner(x):
        conjugate = normal_forms_of(S, max_raw=4, max_inf=1).map(
            lambda c: multiply(multiply(invert(c), x), c)
        )
        return st.tuples(st.just(x), st.one_of(normal_forms_of(S), conjugate))

    return x.flatmap(with_partner)


summit_pairs = st.sampled_from(STRUCTURES).flatmap(summit_pairs_of)


@settings(max_examples=150, deadline=None)
@given(pair=summit_pairs)
def test_target_summit_is_none_exactly_when_invariants_differ(pair):
    x, y = pair
    plain, target = summit(x), summit(y)
    bounded = summit(x, target=target)
    if (plain.inf_s, plain.sup_s) != (target.inf_s, target.sup_s):
        assert bounded is None
    else:
        assert bounded is not None
        assert (bounded.inf_s, bounded.sup_s) == (plain.inf_s, plain.sup_s)
        assert bounded.representative == plain.representative
        assert bounded.witness == plain.witness


def test_target_summit_rejects_outside_invariants_without_cycling(monkeypatch):
    S = BraidStructure(4)
    target = summit(parse_word(S, "a1 a2"))
    assert (target.inf_s, target.sup_s) == (0, 1)
    steps = counting(monkeypatch, "_push_ends")
    # inf 1 is above inf_s, and sup 0 is below sup_s.
    assert summit(parse_word(S, "D a1 a3"), target=target) is None
    assert summit(parse_word(S, "a1^-1 a2^-1"), target=target) is None
    assert cyclings(steps) == []
    # The hook is live: a summit that passes the up-front test cycles.
    assert summit(parse_word(S, "a2 a1"), target=target) is not None
    assert cyclings(steps)


def test_target_summit_rejects_during_decycling(monkeypatch):
    S = BraidStructure(3)
    target = summit(parse_word(S, "a2^3"))
    h = parse_word(S, "a1^2 a2^2")
    # Both normal forms are (0, 3), so h passes the up-front test and its
    # cyclings keep inf 0; a decycling then drops its sup to 2.
    assert (h.inf, h.sup) == (target.inf_s, target.sup_s) == (0, 3)
    plain = summit(h)
    assert (plain.inf_s, plain.sup_s) == (0, 2)
    steps = counting(monkeypatch, "_push_ends")
    assert summit(h, target=target) is None
    # It stops at that decycling, before the ones the plain summit goes on to make.
    assert 0 < len(decyclings(steps)) < sum(e == -1 for _, e in plain.word)


def counting_summits(monkeypatch):
    """Record every `summit` call, from `conjugacy` and from `problems`,
    which imports it by name."""
    calls = []
    original = conjugacy.summit

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (conjugacy, problems):
        monkeypatch.setattr(module, "summit", wrapper)
    return calls


def test_are_conjugate_rejects_on_class_invariants_before_any_summit(monkeypatch):
    calls = counting_summits(monkeypatch)
    S = BraidStructure(4)
    # Degrees 1 and 2; then degree 2 on both, with cycle types (2, 2) and (1, 3).
    for x, y in (("a1", "a1 a2"), ("a1 a3", "a1 a2")):
        g, h = parse_word(S, x), parse_word(S, y)
        assert class_invariant(g) != class_invariant(h)
        assert are_conjugate(g, h) is None
        assert are_conjugate(h, g) is None
    assert calls == []
    # The hook is live: a pair with equal invariants is summited.
    assert are_conjugate(parse_word(S, "a1"), parse_word(S, "a2")) is not None
    assert calls


def test_power_up_to_conjugacy_rejects_on_cycle_types_before_any_summit(monkeypatch):
    calls = counting_summits(monkeypatch)
    S = BraidStructure(3)
    # Both have degree 0 and t_D(g) / t_D(h) = 2, so n = 2 and n = -2 pass
    # the degree test; but perm(h)^{±2} is a 3-cycle and perm(g) the identity.
    g, h = parse_word(S, "a1^2 a2^-2"), parse_word(S, "a1 a2^-1")
    assert translation_number(g) / translation_number(h) == 2
    assert class_invariant(g) != class_invariant(multiply(h, h))
    assert not solve_power(g, h, up_to_conjugacy=True).is_solution
    assert calls == []


def test_walk_decides_a_word_and_its_reversal():
    # A word and its reversal share degree and cycle types, and these two
    # also inf_s and sup_s, so only the walk of g's super summit set tells
    # them apart; `conjugator_to` compares no invariant and says no itself.
    S = BraidStructure(3)
    tokens = ["a1^2", "a2^-1", "a1", "a2^-2"]
    g, h = parse_word(S, " ".join(tokens)), parse_word(S, " ".join(reversed(tokens)))
    assert class_invariant(g) == class_invariant(h)
    sd = summit(g)
    assert summit(h, target=sd) is not None
    assert sd.conjugator_to(h) is None
    assert are_conjugate(g, h) is None


def counting(monkeypatch, name):
    calls = []
    original = getattr(conjugacy, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(conjugacy, name, wrapper)
    return calls


def cyclings(steps):
    """The recorded `_push_ends(S, inf, factors, front, back)` calls that
    cycle: a cycling pushes the identity at the front."""
    return [args for args in steps if args[3].atom_norm == 0]


def decyclings(steps):
    """The recorded `_push_ends` calls that decycle: the identity at the back."""
    return [args for args in steps if args[4].atom_norm == 0]


def test_witness_is_built_on_first_read(monkeypatch):
    words = counting(monkeypatch, "normalize_word")
    # Both cycling and decycling record conjugators for this word.  The steps
    # work on one list of factors, so the summit itself normalizes nothing.
    g = parse_word(BraidStructure(4), "a1^-1 a2 a3^2 a2^-1 a1")
    sd = summit(g)
    assert {e for _, e in sd.word} == {1, -1}
    assert words == []
    witness = sd.witness
    # One word: the cycling conjugators, then the decycled factors inverted.
    assert len(words) == 1
    assert sd.witness is witness
    assert len(words) == 1
    assert_conjugate_by(witness, g, sd.representative)


def test_rejected_root_candidates_build_no_witness(monkeypatch, capsys):
    # Every witness and conjugator of `conjugacy` is one `normalize_word`.
    words = counting(monkeypatch, "normalize_word")
    # A catalog negative: every candidate cube is rejected on its invariants.
    assert run_command(["root", "--group", "braid:4", "--json", "-n", "3", "a1 a2 a1 a1"]) == 0
    assert '"outcome": "no_solution"' in capsys.readouterr().out
    assert words == []


def test_first_candidate_builds_one_follower_row(monkeypatch):
    # One row is one meet per proper simple, none of them left in the cache
    # of `S.meet`; a second row fails at its first meet.  A first run builds
    # Delta and the degree bounds, then the rows are dropped.
    S = BraidStructure(7)
    first = next(factor_sequences(S, 2, (2,)))
    row = len(proper_simples(S))
    meet, meets = type(S)._meet, []

    def counted(self, a, b):
        meets.append(None)
        if len(meets) > row:
            raise AssertionError("a second follower row was built")
        return meet(self, a, b)

    followers.cache_clear()
    monkeypatch.setattr(type(S), "_meet", counted)
    cached = GarsideStructure.meet.cache_info().currsize
    assert next(factor_sequences(S, 2, (2,))) == first
    assert len(meets) == row
    assert GarsideStructure.meet.cache_info().currsize == cached


def test_follower_rows_match_brute_force():
    for S in [*STRUCTURES, BraidStructure(2), BraidStructure(5)]:
        identity = S.identity_simple()
        simples = proper_simples(S)
        for s in simples:
            row = followers(s)
            complement = S.right_complement(s)
            assert row == tuple(t for t in simples if S.meet(complement, t) == identity)
            # Some atom does not divide ∂(s) != Delta, so every row is non-empty.
            assert row
            assert followers(s) is row
