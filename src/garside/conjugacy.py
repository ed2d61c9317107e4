"""
Cycling, decycling, summit invariants and conjugacy decision.

The conjugacy class of g carries the invariants inf_s (the largest inf of
any conjugate) and sup_s (the smallest sup); the conjugates realising both
simultaneously form the finite, nonempty super summit set.  Iterated
cycling raises inf, iterated decycling lowers sup, and conjugating by
minimal simples walks the whole super summit set, which decides conjugacy.
`summit` steps on one working list (inf, factors) that never holds Delta:
a cycling moves the first factor to the back with `core._push`, a
decycling moves the last one to the front with `core._push_front`, a
Delta either push splits off is added to inf (one split off at the back
twists the list), and one Element is built at the end.
The minimal simple of an atom a at x is the ≼-least simple above a that
keeps x in its super summit set (Franco and González-Meneses, 2003); it is
found by climbing joins of simples, so each element has at most one
outgoing conjugator per atom instead of one per simple.  The walk of the
set, `_sss_walk`, is a generator: it forms each conjugate c^{-1} h c on one
list too, with a push at the front and one at the back, inserts it with
the parent link (h, c) it was reached by, and yields it, so a caller can
stop at any element and resume later.

`summit(g)` is the class data of g: the invariants, a representative and,
each built on first use, its witness and the walk of its super summit set.
`summit(g).conjugator_to(h)` is the one place that compares conjugacy
classes.  It first compares `class_invariant(h)`, the degree vector and
the cycle types of the braid permutations, with the one cached for g:
both come from homomorphisms to abelian or permutation groups, so
conjugate elements agree on them, and a difference rejects h before any
summit.  Agreement proves nothing, so it then summits h with summit(g) as
the target and walks g's set only until h's representative is inserted,
or to its end; the walk is kept, so later queries on the same class (the
candidates of one root search) resume it.  The witness is one word of
simples, normalized once: g's cycling conjugators, its decycled factors
inverted, the link path to h's representative, and h's summit witness
inverted.
`summit(h, target=sd)` stops as soon as the invariants of h are known to
differ from those of sd, because cycling never lowers inf and decycling
never raises sup (Elrifai and Morton), so a search that only compares
classes pays for no summit it rejects.

Every positive answer carries a conjugating witness that verifies by direct
multiplication; nothing is a trust-me boolean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Summit invariants of a conjugacy class plus a realising conjugate.

    The witness w satisfies w^{-1} · g · w = representative for the queried
    element g; it is normalized from the recorded cycling conjugators
    a_1 ... a_p and decycling factors s_1 ... s_q on first use.  The super
    summit set is walked lazily, breadth first from the representative
    with a parent link per element, and the walk is kept between queries:
    `conjugator_to(h)` summits h against these invariants and advances the
    walk only until h's representative is reached or the set ends, so a
    conjugate within `DEFAULT_SSS_CAP` elements of the representative is
    found even in a larger set.  Once the walk has passed the cap, every
    later query that needs it raises `ResourceLimitError` again, so a
    capped walk never reads as a finished one.  The whole set is drained
    by `super_summit_set`, not here.
    """

    inf_s: int
    sup_s: int
    representative: Element
    cycled: tuple[Simple, ...]
    decycled: tuple[Simple, ...]
    # The message of the walk's cap failure, once it has failed.
    _failure: str | None = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def witness(self) -> Element:
        """w = a_1 ... a_p · s_1^{-1} ... s_q^{-1} = a_1 ... a_p · (s_q ... s_1)^{-1}."""
        return normalize_word(self.representative.structure, self._witness_word())

    def _witness_word(self) -> list[tuple[Simple, int]]:
        """The witness as a word of simples with exponents."""
        return [(a, 1) for a in self.cycled] + [(s, -1) for s in self.decycled]

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
        return _sss_walk(self._links, DEFAULT_SSS_CAP)

    def _reaches(self, h: Element) -> bool:
        """Whether h is in the super summit set, walking only until it is
        inserted; raises for a walk past the cap."""
        if self._failure is not None:
            raise ResourceLimitError(self._failure)
        if h in self._links:
            return True
        try:
            return any(x == h for x in self._walk)
        except ResourceLimitError as failure:
            object.__setattr__(self, "_failure", str(failure))
            raise

    def conjugator_to(self, h: Element) -> Element | None:
        """With self = summit(g): w with w^{-1} · g · w = h, or None."""
        if class_invariant(h) != self.invariant:
            return None
        return self._summit_conjugator(h)

    def _summit_conjugator(self, h: Element) -> Element | None:
        """`conjugator_to(h)` for an h already known to share `self.invariant`.

        w = (witness of g) · (path to h's representative) · (witness of h)^{-1},
        normalized as one word.
        """
        other = summit(h, target=self)
        if other is None or not self._reaches(other.representative):
            return None
        path = [(c, 1) for c in _link_path(self._links, other.representative)]
        inverse = [(s, -e) for s, e in reversed(other._witness_word())]
        return normalize_word(h.structure, self._witness_word() + path + inverse)


def class_invariant(g: Element) -> tuple:
    """(degree vector, braid cycle types): equal on conjugate elements.

    Both come from homomorphisms to abelian or permutation groups, so
    conjugate elements agree on them; a difference proves two classes
    distinct, and agreement proves nothing.
    """
    return degree(g), cycle_types(g)


def _cycle(S: GarsideStructure, inf: int, factors: list[Simple]) -> tuple[int, Simple]:
    """Cycle the working list Delta^inf · factors in place; returns (inf, a).

    With a = tau^{-inf}(s_1), Delta^inf s_1 = a Delta^inf, so the conjugate
    a^{-1} g a is Delta^inf s_2 ... s_k · a: the first factor is popped and
    a is pushed at the back.  A Delta the push splits off is owed at the
    back, and Delta^inf · factors · Delta = Delta^{inf+1} · tau(factors),
    so the list is twisted at once, with one `map`.
    """
    a = S.twist(-inf)[factors.pop(0)]
    if _push(S, factors, a):
        factors[:] = map(S.twist(1).__getitem__, factors)
        inf += 1
    return inf, a


def _decycle(S: GarsideStructure, inf: int, factors: list[Simple]) -> tuple[int, Simple]:
    """Decycle the working list Delta^inf · factors in place; returns (inf, s_k).

    s_k · g · s_k^{-1} = Delta^inf tau^inf(s_k) s_1 ... s_{k-1}: the last
    factor is popped and its twist is pushed at the front, where a Delta it
    forms is split off and added to inf.
    """
    s = factors.pop()
    return inf + _push_front(S, factors, S.twist(inf)[s]), s


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
    target.sup_s, and then as soon as a cycling lifts inf above target.inf_s,
    the cycled inf misses it, or a decycling drops sup below target.sup_s.
    """
    if target is not None and (g.inf > target.inf_s or g.sup < target.sup_s):
        return None
    S = g.structure
    window = S.delta_norm()
    inf, factors = g.inf, list(g.factors)

    cycled = []
    fails = 0
    while fails < window and factors:
        inf2, a = _cycle(S, inf, factors)
        fails = 0 if inf2 > inf else fails + 1
        cycled.append(a)
        inf = inf2
        if target is not None and inf > target.inf_s:
            return None
    if target is not None and inf != target.inf_s:
        return None

    decycled = []
    fails = 0
    sup = inf + len(factors)
    while fails < window and factors:
        inf, s = _decycle(S, inf, factors)
        sup2 = inf + len(factors)
        fails = 0 if sup2 < sup else fails + 1
        decycled.append(s)
        sup = sup2
        if target is not None and sup < target.sup_s:
            return None
    if target is not None and sup != target.sup_s:
        return None

    h = Element(S, inf, tuple(factors))
    return SummitData(inf, sup, h, tuple(cycled), tuple(decycled))


def _inf_closure(x: Element, c: Simple) -> Simple:
    r"""The least simple above c that conjugates x to an element of inf >= inf(x).

    With x = Delta^p · y, the conjugate c^{-1} x c = Delta^p · tau^p(c)^{-1} y c
    has inf >= p exactly when tau^p(c) ≼ y c, that is when y\tau^p(c) ≼ c,
    where y\t = y^{-1} (y ∨ t) is taken one factor f of y at a time as
    t <- f^{-1} (f ∨ t).  Both sides are monotone in c, so climbing
    c <- c ∨ y\tau^p(c) stops at the least such simple.
    """
    S = x.structure
    twist = S.twist(x.inf)
    while True:
        t = twist[c]
        for f in x.factors:
            t = S.simple_left_divide(f, S.join(f, t))
        grown = S.join(c, t)
        if grown == c:
            return c
        c = grown


def _min_simple(x: Element, x_inv: Element, s: Simple) -> Simple:
    """The ≼-least simple c above s with c^{-1} x c at the (inf, sup) of x.

    sup(c^{-1} x c) <= sup(x) exactly when inf(c^{-1} x^{-1} c) >= inf(x^{-1}),
    so alternating the inf closure on x and on x^{-1} reaches the least
    simple meeting both conditions.  For x in its super summit set this is
    the minimal simple for s of Franco and González-Meneses.
    """
    while True:
        c = _inf_closure(x, s)
        s = _inf_closure(x_inv, c)
        if s == c:
            return c


def _conjugate(S: GarsideStructure, h: Element, c: Simple) -> Element:
    """c^{-1} · h · c for a simple c, on one working list.

    With h = Delta^p · y and l the left complement of c, l · c = Delta gives
    c^{-1} = Delta^{-1} · l, so c^{-1} h c = Delta^{p-1} · tau^p(l) · y · c:
    tau^p(l) is pushed at the front of the factors of y (nothing, when c is
    Delta) and c at the back.  A Delta split off at the front adds to the
    power; one split off at the back adds to it too and twists the list.
    """
    factors = list(h.factors)
    inf = h.inf - 1 + _push_front(S, factors, S.twist(h.inf)[S.left_complement(c)])
    if _push(S, factors, c):
        return Element(S, inf + 1, tuple(map(S.twist(1).__getitem__, factors)))
    return Element(S, inf, tuple(factors))


def _sss_walk(seen: Closure, cap: int) -> Iterator[Element]:
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
    after each insert the size is tested against the cap, which raises
    `ResourceLimitError`, and then the element is yielded, so a caller can
    stop the walk at any element and resume it later.
    """
    (rep,) = seen
    S = rep.structure
    atoms = [S.atom_simple(i) for i in range(len(S.atoms()))]
    frontier = [rep]
    while frontier:
        nxt = []
        for h in frontier:
            h_inv = invert(h)
            for c in sorted({_min_simple(h, h_inv, a) for a in atoms}):
                h2 = _conjugate(S, h, c)
                if h2 in seen:
                    continue
                seen[h2] = (h, c)
                nxt.append(h2)
                if len(seen) > cap:
                    raise ResourceLimitError(
                        f"super summit set exceeds cap of {cap} elements"
                    )
                yield h2
        frontier = nxt


def _sss_closure(rep: Element, cap: int) -> Closure:
    """The super summit set as {element: parent link}, rooted at rep: the
    whole of `_sss_walk`, the one place that drains it."""
    seen: Closure = {rep: None}
    for _ in _sss_walk(seen, cap):
        pass
    return seen


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
    closure = _sss_closure(summit(g).representative, DEFAULT_SSS_CAP if cap is None else cap)
    return tuple(sorted(closure, key=Element.sort_key))


def are_conjugate(g: Element, h: Element) -> Element | None:
    """A conjugator w with w^{-1} · g · w = h if g and h are conjugate, None otherwise."""
    if g.structure is not h.structure:
        raise StructureMismatchError("conjugacy query across structures")
    return summit(g).conjugator_to(h)
