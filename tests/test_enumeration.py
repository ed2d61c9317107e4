"""Root enumeration on explicit stacks, with closed-form degree bounds.

`factor_sequences` walks the follows graph with one option iterator and
one remaining degree per level, no recursion, so a window of any length
enumerates.  It is checked against `oracle.recursive_factor_sequences`,
one recursive generator per factor on the enumerated degree bounds, on
the families of `test_repair_paths` for lengths 0-4, at every degree the
oracle's unpruned walk reaches, where the walks of all those degrees
together make up the unpruned walk (at three of them for the two longest
walks of the nested product).  `_degree_bounds` reads the least atom
weight and deg(Delta) minus it; it is checked against
`oracle.enumerated_degree_bounds`, the degree of every proper simple.  A planted square with a 1,200-factor window (H5c of
`scripts/hard_inputs.py`) answers, and its root re-verifies.
"""

import json
from itertools import islice

import pytest

from garside import braid_structure, invert, multiply, power, structure_from_descriptor
from garside.cli import parse_word, run_command
from garside.enumeration import _degree_bounds, factor_sequences

from .oracle import enumerated_degree_bounds, recursive_factor_sequences
from .test_repair_paths import STRUCTURES

# Sequences of the unpruned oracle walk compared per (family, length).
PREFIX = 60_000
# Walks of at most this many sequences are checked at every degree they
# reach; the nested product's walks of length 3 and 4 reach over a
# thousand degrees, so three of their degrees are checked instead.
EVERY_DEGREE = 6_000


@pytest.mark.parametrize(
    "S",
    [*STRUCTURES, braid_structure(5), braid_structure(6), structure_from_descriptor("torus:7:4"),
     structure_from_descriptor("product:(braid:4,torus:3:2)")],
    ids=lambda S: S.descriptor(),
)
def test_closed_form_degree_bounds_match_every_proper_simple(S):
    assert _degree_bounds(S) == enumerated_degree_bounds(S)


def total_degree(S, factors):
    """The summed degree vector of a sequence of simples."""
    return tuple(map(sum, zip(S.degree(S.identity_simple()), *map(S.degree, factors))))


@pytest.mark.parametrize("S", STRUCTURES, ids=lambda S: S.descriptor())
@pytest.mark.parametrize("length", range(5))
def test_stack_walk_matches_recursive_walk(S, length):
    walked = list(islice(recursive_factor_sequences(S, length), PREFIX))
    by_degree = {}
    for factors in walked:
        by_degree.setdefault(total_degree(S, factors), []).append(factors)
    if len(walked) <= EVERY_DEGREE:
        # Each sequence has one degree, so the walks of every degree
        # reached, each equal to the unpruned walk's sequences of that
        # degree, together make up the unpruned walk.
        degrees = set(by_degree)
    else:
        # Those of the first, a middle and the last sequence walked.
        degrees = {total_degree(S, walked[i]) for i in (0, len(walked) // 2, -1)}
    # Zero, and one above every sequence of this length.
    degrees |= {total_degree(S, ()), total_degree(S, [S.delta()] * (length + 1))}
    for degree in degrees:
        pruned = list(factor_sequences(S, length, degree))
        assert pruned == list(recursive_factor_sequences(S, length, degree))
        assert all(total_degree(S, factors) == degree for factors in pruned)
        if len(walked) < PREFIX:
            assert pruned == by_degree.get(degree, [])


def test_long_window_planted_square_answers(capsys):
    # H5c: (a1^600 a2^-600)^2, a 1,200-factor window; recursion would
    # need a frame per factor.
    S = braid_structure(3)
    word = "a1^600 a2^-600 a1^600 a2^-600"
    assert run_command(["root", "--group", "braid:3", "-n", "2", "--json", word]) == 0
    answer = json.loads(capsys.readouterr().out)
    assert answer["outcome"] == "solution"

    def element(data):
        letters = [name for factor in data["factors"] for name in factor]
        return parse_word(S, " ".join([f"D^{data['inf']}", *letters]))

    root, witness = element(answer["root"]), element(answer["witness"])
    assert multiply(multiply(invert(witness), power(root, 2)), witness) == parse_word(S, word)
