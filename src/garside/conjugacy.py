"""
Cycling, decycling, summit invariants and conjugacy decision.

The conjugacy class of g carries the invariants inf_s (the largest inf of
any conjugate) and sup_s (the smallest sup); the conjugates realising both
simultaneously form the finite, nonempty super summit set.  Iterated
cycling raises inf, iterated decycling lowers sup, and conjugating by
minimal simples walks the whole super summit set, which decides conjugacy.
Each of these conjugations by a simple is one step, `_push_ends`, on one
working list (inf, factors) that never holds Delta: it makes the list
Delta^inf · front · factors · back with `core._push_front` and
`core._push`, adds a Delta either push splits off to inf (one split off
at the back twists the list), and pushes nothing for an identity end.
A cycling pops the first factor and pushes its twist at the back, a
decycling pops the last and pushes its twist at the front, and `summit`
builds one Element at the end.
The minimal simple of an atom a at x is the ≼-least simple above a that
keeps x in its super summit set (Franco and González-Meneses, 2003); it is
found by one climb of joins that adds the residuals of the inf condition
on x and on x^{-1} together, so each element has at most one outgoing
conjugator per atom instead of one per simple.  The walk of the
set, `_sss_walk`, is a generator over one breadth-first queue: it forms
each conjugate c^{-1} h c with the same step, pushing c at the back and
the twisted left complement of c at the front, inserts it with its
parent link (h, c) and yields it.  `SummitData._reaches` is the one loop
that advances a walk and checks its cap, for a query and for the drain
of the whole set.

`summit(g)` is the class data of g: a representative, which carries
inf_s and sup_s, and one word of simples (g's cycling conjugators, then
the factors its decyclings move, inverted), from which the witness and
the walk of its super summit set are each built on first use.
`summit(g).conjugator_to(h)` is the one comparison of classes: it summits
h with summit(g) as the target, stopping as soon as the invariants of h
are known to differ, because cycling never lowers inf and decycling never
raises sup (Elrifai and Morton); it then walks g's set only until h's
representative is inserted, or to its end, and keeps the walk for the
next query on the class (the candidates of one root search).  The witness
is one word normalized once: g's summit word, the link path to h's
representative, and h's summit word inverted.  `are_conjugate(g, h)`
first compares `class_invariant` of g and h, the degree vector and the
braid cycle types: both come from homomorphisms to abelian or permutation
groups, so conjugates agree on them, and a difference answers None before
any summit; agreement proves nothing.

Every positive answer carries a conjugating witness that verifies by direct
multiplication; nothing is a trust-me boolean.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .core import (
    Element,
    GarsideStructure,
    ResourceLimitError,
    Simple,
    StructureMismatchError,
    _push,
    _push_front,
    cycle_types,
    degree,
    invert,
    normalize_word,
)

DEFAULT_SSS_CAP = 100_000

Closure = dict[Element, tuple[Element, Simple] | None]


@dataclass(frozen=True)
class SummitData:
    """A class's summit representative and the word that reaches it.

    `word` holds (a, +1) per cycling conjugator and (s, -1) per factor a
    decycling moves, so its normal form, the witness w, has
    w^{-1} · g · w = representative for the queried g; inf_s and sup_s are
    read off the representative.  The super summit set is walked lazily,
    breadth first from the representative, and the walk is kept between
    queries: `conjugator_to(h)` advances it only until h's representative
    is reached or the set ends, so a conjugate within `DEFAULT_SSS_CAP`
    elements of the representative is found even in a larger set.
    `_reaches` is the one loop over the walk and its one cap check, and
    `_sss_closure` drains the whole set through it.
    """

    representative: Element
    word: tuple[tuple[Simple, int], ...]

    @property
    def inf_s(self) -> int:
        return self.representative.inf

    @property
    def sup_s(self) -> int:
        return self.representative.sup

    @cached_property
    def witness(self) -> Element:
        """w = a_1 ... a_p · s_1^{-1} ... s_q^{-1}, the normal form of `word`."""
        return normalize_word(self.representative.structure, self.word)

    @cached_property
    def invariant(self) -> tuple:
        """The class invariant (degree vector, braid cycle types) of the representative."""
        return class_invariant(self.representative)

    @cached_property
    def _links(self) -> Closure:
        """The part of the super summit set walked so far, as {element: parent link}."""
        return {self.representative: None}

    @cached_property
    def _walk(self) -> Iterator[Element]:
        """The walk that fills `_links`, kept between queries."""
        return _sss_walk(self._links)

    def _reaches(self, h: Element | None, cap: int | None = None) -> bool:
        """Whether h is in the super summit set, walking only until it is
        inserted, or to the end when h is None; the one cap check: raises while
        the walk holds more than cap, DEFAULT_SSS_CAP as read here when None."""
        cap = DEFAULT_SSS_CAP if cap is None else cap
        reached = h in self._links
        while len(self._links) <= cap:
            if reached:
                return True
            x = next(self._walk, None)
            if x is None:
                return False
            reached = x == h
        raise ResourceLimitError(f"super summit set exceeds cap of {cap} elements")

    def conjugator_to(self, h: Element) -> Element | None:
        """With self = summit(g): w with w^{-1} · g · w = h, or None.

        w = (witness of g) · (path to h's representative) · (witness of h)^{-1},
        normalized as one word.  No class invariant is compared here; that
        prefilter is `are_conjugate`'s.
        """
        other = summit(h, target=self)
        if other is None or not self._reaches(other.representative):
            return None
        path = [(c, 1) for c in _link_path(self._links, other.representative)]
        inverse = [(s, -e) for s, e in reversed(other.word)]
        return normalize_word(h.structure, [*self.word, *path, *inverse])


def class_invariant(g: Element) -> tuple:
    """(degree vector, braid cycle types): equal on conjugate elements.

    Both come from homomorphisms to abelian or permutation groups, so
    conjugate elements agree on them; a difference proves two classes
    distinct, and agreement proves nothing.
    """
    return degree(g), cycle_types(g)


def _push_ends(
    S: GarsideStructure, inf: int, factors: list[Simple], front: Simple, back: Simple
) -> int:
    """Make the working list Delta^inf · front · factors · back in place; returns its inf.

    The one conjugation step by simples at the ends: a Delta `_push_front`
    splits off at the front is added to inf, and one `_push` splits off at
    the back too, with Delta^inf · factors · Delta = Delta^{inf+1} ·
    tau(factors), so the list is twisted at once, with one `map`.  An
    identity at either end is no push at all.
    """
    inf += _push_front(S, factors, front)
    if _push(S, factors, back):
        factors[:] = map(S.twist(1).__getitem__, factors)
        inf += 1
    return inf


def summit(g: Element, target: SummitData | None = None) -> SummitData | None:
    """Summit invariants, a representative realising both, and its witness.

    Stopping rule: once ||Delta|| consecutive cyclings fail to raise inf,
    inf is summit; likewise for decycling and sup.  Every step works in
    place on one list (inf, factors), and one Element is built at the end.

    With a `target`, returns None as soon as the invariants of g are known
    to differ from (target.inf_s, target.sup_s), and otherwise exactly what
    summit(g) returns.  Cycling never lowers inf nor raises sup, and
    decycling never raises sup and keeps the summit inf, so g is rejected
    up front when its inf is above target.inf_s or its sup below
    target.sup_s, and then as soon as a cycling lifts inf above
    target.inf_s, the inf after cycling misses it, or a decycling drops sup
    below target.sup_s.
    """
    if target is not None and (g.inf > target.inf_s or g.sup < target.sup_s):
        return None
    S = g.structure
    window = S.delta_norm()
    identity = S.identity_simple()
    inf, factors = g.inf, list(g.factors)

    # Cycling: with a = tau^{-inf}(s_1), Delta^inf s_1 = a Delta^inf, so
    # a^{-1} g a = Delta^inf s_2 ... s_k · a.
    word = []
    fails = 0
    while fails < window and factors:
        a = S.twist(-inf)[factors.pop(0)]
        inf2 = _push_ends(S, inf, factors, identity, a)
        fails = 0 if inf2 > inf else fails + 1
        word.append((a, 1))
        inf = inf2
        if target is not None and inf > target.inf_s:
            return None
    if target is not None and inf != target.inf_s:
        return None

    # Decycling: s_k · g · s_k^{-1} = Delta^inf tau^inf(s_k) s_1 ... s_{k-1}.
    fails = 0
    sup = inf + len(factors)
    while fails < window and factors:
        s = factors.pop()
        inf = _push_ends(S, inf, factors, S.twist(inf)[s], identity)
        sup2 = inf + len(factors)
        fails = 0 if sup2 < sup else fails + 1
        word.append((s, -1))
        sup = sup2
        if target is not None and sup < target.sup_s:
            return None
    if target is not None and sup != target.sup_s:
        return None

    return SummitData(Element(S, inf, tuple(factors)), tuple(word))


def _min_simple(x: Element, x_inv: Element, s: Simple) -> Simple:
    r"""The ≼-least simple c above s with c^{-1} x c at the (inf, sup) of x.

    For y = Delta^p · z, inf(c^{-1} y c) >= p exactly when the residual
    r_y(c) = z\tau^p(c) ≼ c, where z\t = z^{-1} (z ∨ t) is taken one factor
    f of z at a time as t <- f^{-1} (f ∨ t); and sup(c^{-1} x c) <= sup(x)
    exactly when inf(c^{-1} x^{-1} c) >= inf(x^{-1}).  Both residuals are
    monotone in c, so each c above s with r_x(c) ≼ c and r_{x^{-1}}(c) ≼ c
    lies above every step of the one climb c <- c ∨ r_x(c) ∨ r_{x^{-1}}(c)
    from s, which stops at the least.  For x in its super summit set this
    is the minimal simple for s of Franco and González-Meneses.
    """
    S = x.structure
    c = s
    while True:
        grown = c
        for y in (x, x_inv):
            t = S.twist(y.inf)[c]
            for f in y.factors:
                t = S.simple_left_divide(f, S.join(f, t))
            grown = S.join(grown, t)
        if grown == c:
            return c
        c = grown


def _sss_walk(seen: Closure) -> Iterator[Element]:
    """Walk the super summit set breadth first from the one key of `seen`.

    That key, rep, must lie in its super summit set, any two elements of
    which are linked by conjugations by simples that stay in the set
    (Elrifai and Morton).  Such a simple s for h lies above some atom,
    hence above that atom's minimal simple c at h, and c^{-1} s is a
    shorter simple of the same kind for c^{-1} h c; so conjugating each h
    by the distinct minimal simples of the atoms, at most one per atom,
    reaches the whole set.  The conjugators of each h are tried in
    canonical order, as in the closure under all simples.  Each new
    element is inserted into `seen` with the pair (h, c) it was first
    reached by, element = c^{-1} · h · c, and rep keeps its link None;
    then it is queued and yielded, so a caller can stop the walk at any
    element, resume it later, and read its size from `seen`, where a cap
    is checked.
    """
    (rep,) = seen
    S = rep.structure
    atoms = [S.atom_simple(i) for i in range(len(S.atoms()))]
    queue = [rep]
    for h in queue:
        h_inv = invert(h)
        for c in sorted({_min_simple(h, h_inv, a) for a in atoms}):
            # With l · c = Delta, c^{-1} = Delta^{-1} · l, so for h = Delta^p · y,
            # c^{-1} h c = Delta^{p-1} · tau^p(l) · y · c.
            factors = list(h.factors)
            inf = _push_ends(S, h.inf - 1, factors, S.twist(h.inf)[S.left_complement(c)], c)
            h2 = Element(S, inf, tuple(factors))
            if h2 in seen:
                continue
            seen[h2] = (h, c)
            queue.append(h2)
            yield h2


def _sss_closure(rep: Element, cap: int | None) -> Closure:
    """The super summit set as {element: parent link}, rooted at rep: the
    walk of a `SummitData` on rep drained by `_reaches(None, cap)`, which
    raises once it holds more than `cap` elements (None: DEFAULT_SSS_CAP)."""
    sd = SummitData(rep, ())
    sd._reaches(None, cap)
    return sd._links


def _link_path(closure: Closure, h: Element) -> list[Simple]:
    """The conjugators on the parent links from rep to h, rep first."""
    path = []
    link = closure[h]
    while link is not None:
        h, c = link
        path.append(c)
        link = closure[h]
    return path[::-1]


def super_summit_set(g: Element, cap: int | None = None) -> tuple[Element, ...]:
    """The full super summit set of g, in canonical order; the cap defaults
    to DEFAULT_SSS_CAP as read at call time."""
    closure = _sss_closure(summit(g).representative, cap)
    return tuple(sorted(closure, key=Element.sort_key))


def are_conjugate(g: Element, h: Element) -> Element | None:
    """A conjugator w with w^{-1} · g · w = h if g and h are conjugate, None otherwise.

    The one prefilter of a class comparison: a pair whose class invariants
    differ answers None before any summit; any other pair is decided by
    `summit(g).conjugator_to(h)`.
    """
    if g.structure is not h.structure:
        raise StructureMismatchError("conjugacy query across structures")
    if class_invariant(g) != class_invariant(h):
        return None
    return summit(g).conjugator_to(h)
