"""The super summit set walked only as far as a query needs.

`SummitData` walks the set breadth first from its representative and
keeps the walk between queries: `conjugator_to(h)` advances it only until
h's representative is inserted.  On the families of `test_repair_paths`:
a partial walk holds a prefix of `oracle.eager_sss_closure`, which forms
every conjugate by multiplication, in the same order, and resumes to the
whole of it (`_sss_closure` drains the same walk, so it is no reference
for its order); `conjugator_to` gives the witness of
`oracle.invariant_free_conjugator`, which looks the target up in the whole
set and multiplies the witness out piece by piece; and under a small cap
a target inside it answers, while a target beyond it raises, again on
every later call on the same summit data while the cap stays, and the
same query answers once the cap is raised.
"""

import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import BraidStructure, conjugacy, invert, multiply, summit
from garside.cli import parse_word, run_command
from garside.conjugacy import DEFAULT_SSS_CAP, ResourceLimitError, _sss_closure

from .conftest import assert_conjugate_by
from .oracle import eager_sss_closure, invariant_free_conjugator
from .test_lazy_summits import summit_pairs
from .test_repair_paths import STRUCTURES, normal_forms_of

# Per family, a word whose super summit set has at least four elements.
WIDE = {
    "braid:3": "a1 a2^-1",
    "braid:4": "a1 a2 a3^-1",
    "torus:5:3": "x y x y^-1",
    "product:(torus:2:3,torus:2:3)": "L.x L.y^-1 R.x R.y^-1",
    "product:(product:(braid:3,torus:2:3),braid:3)": "L.L.a1 L.L.a2^-1 R.a1 R.a2^-1",
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_partial_walk_is_a_prefix_of_the_closure(data):
    S = data.draw(st.sampled_from(STRUCTURES))
    sd = summit(data.draw(normal_forms_of(S)))
    full = list(eager_sss_closure(sd.representative, DEFAULT_SSS_CAP))
    k = data.draw(st.integers(0, len(full) - 1))
    assert sd._reaches(full[k])
    assert list(sd._links) == full[:k + 1]
    # The walk resumes where it stopped and reaches the whole closure.
    assert sd._reaches(full[-1])
    assert list(sd._links) == full


@settings(max_examples=150, deadline=None)
@given(pair=summit_pairs)
def test_conjugator_matches_the_whole_set_oracle(pair):
    x, y = pair
    witness = summit(x).conjugator_to(y)
    assert witness == invariant_free_conjugator(summit(x), y)
    inverse = summit(invert(x)).conjugator_to(invert(y))
    assert inverse == invariant_free_conjugator(summit(invert(x)), invert(y))
    if witness is not None:
        assert_conjugate_by(witness, x, y)


def conjugates_by_position(sd):
    """(position of h's summit representative in the walk, h) for a
    conjugate h of every element of the super summit set of sd."""
    order = {h: i for i, h in enumerate(eager_sss_closure(sd.representative, DEFAULT_SSS_CAP))}
    out = []
    for element in order:
        h = summit(element).representative
        if h in order:
            out.append((order[h], element))
    return sorted(out, key=lambda pair: pair[0])


@pytest.mark.parametrize("S", STRUCTURES, ids=lambda S: S.descriptor())
def test_cap_answers_inside_and_raises_beyond(monkeypatch, S):
    g = parse_word(S, WIDE[S.descriptor()])
    targets = conjugates_by_position(summit(g))
    size = len(_sss_closure(summit(g).representative, DEFAULT_SSS_CAP))
    assert size >= 4
    cap = max(position for position, _ in targets)
    assert cap >= 1
    monkeypatch.setattr(conjugacy, "DEFAULT_SSS_CAP", cap)
    # The element a walk inserts at position p makes the set p + 1 long,
    # so a target at a position below the cap answers.
    for position, h in targets:
        if position < cap:
            witness = summit(g).conjugator_to(h)
            assert_conjugate_by(witness, g, h)
    far = next(h for position, h in targets if position >= cap)
    sd = summit(g)
    for _ in range(2):
        with pytest.raises(ResourceLimitError, match=f"cap of {cap}"):
            sd.conjugator_to(far)
    # A capped walk stays failed: it never reads as a finished one.
    near = targets[0][1]
    with pytest.raises(ResourceLimitError):
        sd.conjugator_to(near)


def test_a_capped_walk_is_read_from_its_table(monkeypatch):
    # The walk only inserts and yields; each query compares the size of its
    # table with the cap read at that call.
    assert list(inspect.signature(conjugacy._sss_walk).parameters) == ["seen"]
    g = parse_word(BraidStructure(3), WIDE["braid:3"])
    position, far = conjugates_by_position(summit(g))[-1]
    assert position >= 1
    sd = summit(g)
    monkeypatch.setattr(conjugacy, "DEFAULT_SSS_CAP", position)
    with pytest.raises(ResourceLimitError, match=f"cap of {position}"):
        sd.conjugator_to(far)
    monkeypatch.setattr(conjugacy, "DEFAULT_SSS_CAP", DEFAULT_SSS_CAP)
    assert_conjugate_by(sd.conjugator_to(far), g, far)


def test_conj_answers_a_target_inside_the_cap_of_a_larger_set(monkeypatch, capsys):
    # The super summit set of a1 a2^-1 in braid:3 has more elements than
    # this cap, but the rotated word's representative is reached within it.
    S = BraidStructure(3)
    sd = summit(parse_word(S, "a1 a2^-1"))
    assert len(_sss_closure(sd.representative, DEFAULT_SSS_CAP)) > 2
    monkeypatch.setattr(conjugacy, "DEFAULT_SSS_CAP", 2)
    assert run_command(["conj", "--group", "braid:3", "--json", "a1 a2^-1", "a2^-1 a1"]) == 0
    assert json.loads(capsys.readouterr().out)["conjugate"] is True
    assert run_command(["sss", "--group", "braid:3", "--json", "a1 a2^-1"]) == 1
    assert '"outcome": "resource_limit"' in capsys.readouterr().out


def test_conjugator_is_one_word(monkeypatch):
    words = []
    original = conjugacy.normalize_word
    monkeypatch.setattr(conjugacy, "normalize_word",
                        lambda S, word: words.append(word) or original(S, word))
    S = BraidStructure(4)
    g = parse_word(S, "a1^-1 a2 a3^2 a2^-1 a1")
    c = parse_word(S, "a3 a2^-1 a1")
    h = multiply(multiply(invert(c), g), c)
    witness = summit(g).conjugator_to(h)
    assert len(words) == 1
    assert_conjugate_by(witness, g, h)
