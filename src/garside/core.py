"""
Canonical-form arithmetic over an abstract Garside structure.

Every group element is stored in its left-weighted normal form

    Delta^r · s_1 · s_2 · ... · s_k

where each factor s_i is a simple element (a left divisor of the Garside
element Delta), no factor is the identity or Delta, and each adjacent pair
satisfies the local left-weighted condition

    right_complement(s_i)  ∧  s_{i+1}  =  identity.

The normal form is unique, so structural equality of (inf, factors) is group
equality.  One domino-rule repair keeps it, from either end of a working
list that never holds Delta or the identity.  `_push` appends a simple with
one leftward pass of local "slides", each moving weight from a factor into
its left neighbour, that stops at the first pair it leaves unchanged; only
the appended slot can become the identity.  A Delta formed by a slide is
split off at once: P·Delta·Q = P·tau^{-1}(Q)·Delta, so the pass twists the
part Q it has already walked, drops the Delta and reports it, and never
does more work than the slides it made.  `_push_front` prepends a simple
with the mirror rightward pass, for left multiplication, and reports a
Delta formed at the front.  The caller settles each reported Delta:
`normalize` and `multiply` owe them at the back and twist the list once at
the end; `conjugacy` makes every conjugation by simples (a cycling, a
decycling, a step of the super summit walk) one call of `_push_ends`,
which pushes at both ends, adds a Delta split off at the front to inf,
and twists the list at once for one split off at the back.  Twists are
table lookups (`GarsideStructure.twist`), so a run of factors is twisted
with one `map`.  Inverses need no repair: their normal form is read off
directly.

Each slide is read from a row on its left simple: `a.slides` maps a right
neighbour b to the left-weighted pair of (a, b).  Rows fill on first use
from `S.slide`, so they hold only the pairs that occur and cost one dict
lookup per repaired pair; they are the only slide store, and no |S|^2
table is ever allocated.

Structures and simples are interned: every structure value is one object
(see `_Interned`), and `GarsideStructure.make_simple` is the only simple
constructor, so both compare and hash by identity: a cache or row lookup
keyed on simples hashes addresses only, never a structure or a payload.

A `GarsideStructure` supplies the presentation-specific primitives on simple
elements (meet, right complement, left division, word reversal) at the
payload level; this module wraps them with interning, validation and one
store per pairwise fact, derives the join, Delta (the join of the atoms),
the identity, tau, the left complement, the product of two simples and an
atom word of each simple from them, and implements all element-level
arithmetic on top.  Concrete structures live in `structures`.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter
from typing import Any, Iterable, Iterator, Sequence

# A simple costs a few hundred bytes, so a table of this many is a few
# hundred MB; no structure with more is ever tabulated.
MAX_SIMPLES = 1_000_000

# A factor of a power is one 8-byte reference, and a multiply holds a few
# lists of its operands' length, so a power of this many factors peaks at a
# few hundred MB; a longer one is never formed.
MAX_POWER_FACTORS = 10**7


class StructureMismatchError(ValueError):
    """Raised when an operation mixes values owned by different structures."""


class ResourceLimitError(RuntimeError):
    """A search or table exceeded its cap; the question is left undecided."""


@dataclass(frozen=True)
class Atom:
    """A generator of the positive monoid: table index plus display name."""

    index: int
    name: str


@dataclass(frozen=True, eq=False)
class Simple:
    """A left divisor of Delta, tagged with its atom-length norm.

    The payload is structure-specific (a permutation tuple for braids, a
    tagged exponent for torus groups, a pair of component simples for
    products) and is only ever interpreted by the owning structure.  The
    norm ||s|| is carried eagerly so length queries are O(1).

    Simples are interned: `GarsideStructure.make_simple` is the only
    constructor, and its cache is keyed on the interned structure, so equal
    simples are the same object and compare and hash by identity.  The
    interning holds within one thread: a structure and the values made
    from it are for one thread at a time.

    `slides` is the simple's row of left-weighted pairs, filled by the
    normal-form engine: `slides[b]` is `structure.slide(self, b)`, kept
    only here.
    """

    structure: "GarsideStructure" = field(repr=False)
    payload: Any
    atom_norm: int
    slides: dict["Simple", tuple["Simple", "Simple"]] = field(
        default_factory=dict, init=False, repr=False
    )

    def __lt__(self, other: "Simple"):
        if not isinstance(other, Simple):
            return NotImplemented
        return (self.atom_norm, self.payload) < (other.atom_norm, other.payload)


_STRUCTURES: dict[tuple, "GarsideStructure"] = {}


class _Interned(abc.ABCMeta):
    """Metaclass that makes each structure value a single object.

    A constructor call builds the instance as usual, validation in
    `__post_init__` included, then returns the first instance built with
    the same class and field values, so a value that fails validation is
    never interned.  Components of a product are themselves interned, so
    the key hashes by identity all the way down, and structures can use
    identity for `==` and `hash`.
    """

    def __call__(cls, *args, **kwargs):
        candidate = super().__call__(*args, **kwargs)
        key = (cls, *(getattr(candidate, f.name) for f in dataclasses.fields(candidate)))
        return _STRUCTURES.setdefault(key, candidate)


class GarsideStructure(abc.ABC, metaclass=_Interned):
    """Primitive operations of one Garside presentation.

    Subclasses are frozen dataclasses declared with ``eq=False``: instances
    are interned by value (see `_Interned`), so they compare and hash by
    identity.  They implement the payload-level primitives (prefixed with an
    underscore) and `descriptor`; this base class wraps them in interned
    `Simple` values, argument validation and caching.  With ∂ the right
    complement it derives the rest: Delta is the join of the atoms, the
    minimal Garside element, the identity is ∂(Delta), tau is ∂∘∂, the
    left complement is tau^{-1}∘∂, the product a·c is the left complement
    of c^{-1}·∂(a), and an atom word peels the lowest-index atom that
    left-divides what is left.  A slide and the product it forms are kept
    only in the row `a.slides`, tau only in `twist`; a slide, `join` and
    `simple_left_divide` meet on payloads, so a meet read once is not kept.
    """

    # Optional certificates a presentation may provide.
    tau_order_hint: int | None = None
    unique_root_exponent: int | None = None

    # ------------------------------------------------------------------
    # payload primitives supplied by each concrete presentation
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _atom_payloads(self) -> tuple[tuple[str, Any], ...]:
        """Pairs (display name, payload), one per atom, in table order."""

    @abc.abstractmethod
    def _norm(self, payload) -> int:
        """The atom-length norm ||s||."""

    @abc.abstractmethod
    def _meet(self, a, b) -> Any:
        """Greatest common left divisor of two simples."""

    @abc.abstractmethod
    def _right_complement(self, a) -> Any:
        """The simple t with a·t = Delta."""

    @abc.abstractmethod
    def _left_divide(self, a, b) -> Any:
        """a^{-1}·b, assuming a divides b on the left."""

    @abc.abstractmethod
    def _reverse(self, a) -> Any:
        """The simple spelled by a's atom words read backwards.

        Word reversal is an anti-automorphism of the positive monoid that
        fixes the atoms and Delta, so it swaps left and right divisibility.
        """

    @abc.abstractmethod
    def _all_payloads(self) -> Iterator[Any]:
        """Every simple payload, identity and Delta included; those of one atom
        norm in increasing order, so `enumerate_simples` sorts by norm alone."""

    @abc.abstractmethod
    def _atom_weights(self) -> tuple[tuple[int, ...], ...]:
        """The degree vector of each atom, in table order.

        Every defining relation equates words of equal weight, so the
        weights extend to the degree homomorphism G -> Z^k.
        """

    def _permutations(self, payload) -> tuple[tuple[int, ...] | None, ...]:
        """One entry per degree coordinate: the simple's permutation on a
        braid component, None elsewhere."""
        return (None,) * len(self._atom_weights()[0])

    @abc.abstractmethod
    def descriptor(self) -> str:
        """The textual descriptor of this structure, e.g. ``braid:3``."""

    # ------------------------------------------------------------------
    # interning and constants
    # ------------------------------------------------------------------

    @functools.cache
    def make_simple(self, payload) -> Simple:
        """The one `Simple` of a payload.  `functools.cache` takes no lock,
        so two threads that miss at once can each make one: use a structure
        from one thread at a time."""
        return Simple(self, payload, self._norm(payload))

    @functools.cache
    def identity_simple(self) -> Simple:
        return self.right_complement(self.delta())

    @functools.cache
    def delta(self) -> Simple:
        """The join of the atoms; `join` reads no Delta, so nothing recurses."""
        return functools.reduce(self.join, map(self.atom_simple, range(len(self.atoms()))))

    @functools.cache
    def delta_norm(self) -> int:
        return self.delta().atom_norm

    @functools.cache
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(Atom(i, name) for i, (name, _) in enumerate(self._atom_payloads()))

    @functools.cache
    def atom_simple(self, index: int) -> Simple:
        return self.make_simple(self._atom_payloads()[index][1])

    @functools.cache
    def atom_by_name(self) -> dict[str, Atom]:
        return {atom.name: atom for atom in self.atoms()}

    @functools.cache
    def enumerate_simples(self) -> tuple[Simple, ...]:
        """All simple elements, in a canonical deterministic order.

        Raises `ResourceLimitError`, before any simple is made, when there
        are more than MAX_SIMPLES.
        """
        if sum(1 for _ in islice(self._all_payloads(), MAX_SIMPLES + 1)) > MAX_SIMPLES:
            raise ResourceLimitError(f"{self.descriptor()} has more than {MAX_SIMPLES} simples")
        return tuple(sorted(map(self.make_simple, self._all_payloads()), key=attrgetter("atom_norm")))

    @functools.cache
    def tau_order(self) -> int:
        """Multiplicative order of tau on the atom set.

        tau is determined by its action on atoms, so this is also its order
        on the whole set of simples, and the least m with Delta^m central.
        """
        start = [self.atom_simple(i) for i in range(len(self.atoms()))]
        current = [self.tau_simple(s) for s in start]
        order = 1
        while current != start:
            current = [self.tau_simple(s) for s in current]
            order += 1
        hint = self.tau_order_hint
        if hint is not None and hint % order != 0:
            raise AssertionError(f"tau order {order} does not divide the declared hint {hint}")
        return order

    # ------------------------------------------------------------------
    # public simple-level operations
    # ------------------------------------------------------------------

    def _check(self, s: Simple) -> None:
        if s.structure is not self:
            raise StructureMismatchError(f"simple of {s.structure!r} used with {self!r}")

    @functools.cache
    def meet(self, a: Simple, b: Simple) -> Simple:
        self._check(a)
        self._check(b)
        return self.make_simple(self._meet(a.payload, b.payload))

    @functools.cache
    def right_complement(self, s: Simple) -> Simple:
        self._check(s)
        return self.make_simple(self._right_complement(s.payload))

    @functools.cache
    def left_complement(self, s: Simple) -> Simple:
        """The simple t with t·s = Delta: Delta·s^{-1} = tau^{-1}(right_complement(s))."""
        return self.twist(-1)[self.right_complement(s)]

    @functools.lru_cache(maxsize=0)
    def simple_product(self, a: Simple, c: Simple) -> Simple:
        """a·c for simples with c dividing the right complement of a.

        a·c·∂(a·c) = Delta = a·∂(a), so ∂(a·c) = c^{-1}·∂(a) and a·c is its
        left complement.
        """
        return self.left_complement(self.simple_left_divide(c, self.right_complement(a)))

    @functools.cache
    def simple_left_divide(self, c: Simple, b: Simple) -> Simple:
        """c^{-1}·b for simples with c a left divisor of b."""
        self._check(c)
        self._check(b)
        if self._meet(c.payload, b.payload) != c.payload:
            raise ValueError("left divisor expected")
        return self.make_simple(self._left_divide(c.payload, b.payload))

    @functools.lru_cache(maxsize=0)
    def tau_simple(self, s: Simple) -> Simple:
        """Delta^{-1}·s·Delta = ∂(∂(s)), since s·∂(s) = Delta = ∂(s)·∂(∂(s))."""
        return self.right_complement(self.right_complement(s))

    def reverse(self, s: Simple) -> Simple:
        self._check(s)
        return self.make_simple(self._reverse(s.payload))

    @functools.cache
    def join(self, a: Simple, b: Simple) -> Simple:
        """Least common right multiple a ∨ b: the least simple both left-divide.

        c is a right multiple of a exactly when right_complement(c) is a
        right divisor of right_complement(a), so right_complement(a ∨ b) is
        the greatest common right divisor of the two complements, which
        word reversal turns into a meet.
        """
        rev, rc = self._reverse, self.right_complement
        suffix = rev(self._meet(rev(rc(a).payload), rev(rc(b).payload)))
        return self.left_complement(self.make_simple(suffix))

    def twist(self, k: int) -> "_Twist":
        """tau^k as a dict on simples, the only store of tau^k: `S.twist(k)[s]`
        reads one entry, and `map(S.twist(k).__getitem__, run)` twists a run
        of factors without a Python call per factor."""
        twists = self._twists
        return twists[k % len(twists)]

    @functools.cached_property
    def _twists(self) -> tuple["_Twist", ...]:
        return tuple(_Twist(self, k) for k in range(self.tau_order()))

    # The rows `a.slides` are the only slide store, so this cache keeps no
    # entries; `cache_info()` still counts the calls, one per row miss.
    @functools.lru_cache(maxsize=0)
    def slide(self, a: Simple, b: Simple) -> tuple[Simple, Simple]:
        """Left-weight the pair (a, b), preserving the product a·b."""
        self._check(b)
        c = self.make_simple(self._meet(self.right_complement(a).payload, b.payload))
        if c.atom_norm == 0:
            return (a, b)
        return (self.simple_product(a, c), self.simple_left_divide(c, b))

    @functools.cache
    def atom_word(self, s: Simple) -> tuple[int, ...]:
        """The atom indices of one word spelling s: each letter is the
        lowest-index atom that left-divides what is left."""
        self._check(s)
        atoms = [self.atom_simple(i) for i in range(len(self.atoms()))]
        word = []
        while s.atom_norm:
            i = next(i for i, t in enumerate(atoms) if self.meet(t, s) is t)
            word.append(i)
            s = self.simple_left_divide(atoms[i], s)
        return tuple(word)

    @functools.cache
    def degree(self, s: Simple) -> tuple[int, ...]:
        """The degree vector of s, summed over its atom word."""
        weights = self._atom_weights()
        total = [0] * len(weights[0])
        for i in self.atom_word(s):
            for c, w in enumerate(weights[i]):
                total[c] += w
        return tuple(total)

    @functools.cache
    def permutations(self, s: Simple) -> tuple[tuple[int, ...] | None, ...]:
        self._check(s)
        return self._permutations(s.payload)

    @functools.cache
    def simple_atom_names(self, s: Simple) -> tuple[str, ...]:
        """A word in atom display names spelling the simple s."""
        atoms = self.atoms()
        return tuple(atoms[i].name for i in self.atom_word(s))


class _Twist(dict):
    """tau^k on the simples of one structure, for 0 <= k < tau_order(),
    filled on first lookup by applying tau k times."""

    __slots__ = ("structure", "k")

    def __init__(self, structure: GarsideStructure, k: int):
        super().__init__()
        self.structure, self.k = structure, k

    def __missing__(self, s: Simple) -> Simple:
        t = s
        for _ in range(self.k):
            t = self.structure.tau_simple(t)
        self[s] = t
        return t


@dataclass(frozen=True)
class Element:
    """A group element in left-weighted normal form Delta^inf · factors."""

    structure: GarsideStructure = field(repr=False)
    inf: int
    factors: tuple[Simple, ...]

    @property
    def sup(self) -> int:
        return self.inf + len(self.factors)

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    @property
    def is_identity(self) -> bool:
        return self.inf == 0 and not self.factors

    def sort_key(self):
        return (self.inf, self.factors)

    def __str__(self):
        words = [" ".join(self.structure.simple_atom_names(s)) for s in self.factors]
        body = " · ".join(words) if words else "(empty)"
        return f"D^{self.inf} · {body}"

    def __repr__(self):
        return f"<{self.structure.descriptor()} {self}>"


# ----------------------------------------------------------------------
# normal-form engine
# ----------------------------------------------------------------------


def _push(S: GarsideStructure, factors: list[Simple], s: Simple) -> int | None:
    """Append s to a left-weighted list and slide it back into normal form.

    `factors` holds proper simples only: no Delta, no identity.  By the
    domino rule, sliding the pair at p keeps the pair at p+1 left-weighted,
    so one leftward pass repairs the list and stops at the first pair that
    does not change.  Only the appended slot can empty, and it is then
    popped.  A slide that forms Delta at p ends the pass: with P the factors
    before it and Q those after, P·Delta·Q = P·tau^{-1}(Q)·Delta, so Q is
    twisted and the Delta dropped; the caller owes it at the back.  Pushing
    Delta itself only reports it, and the identity returns at once.  Each
    slide is read from the row `a.slides`, filled from `S.slide` on a miss.

    Returns the number of Deltas split off (0 or 1), or None when no pair
    changed, so that whatever follows s left-weighted can be appended as is.
    """
    if s.atom_norm == 0:
        return None
    delta = S.delta()
    if s is delta:
        return 1
    factors.append(s)
    p = len(factors) - 1
    b = s
    deltas = None
    while p:
        # b belongs at p; slide the pair (factors[p - 1], b).
        a = factors[p - 1]
        pair = a.slides.get(b)
        if pair is None:
            pair = a.slides[b] = S.slide(a, b)
        b, factors[p] = pair
        if b is a:
            break
        deltas = 0
        if b is delta:
            factors[p - 1:] = map(S.twist(-1).__getitem__, factors[p:])
            deltas = 1
            break
        p -= 1
    else:
        factors[0] = b
    if factors[-1].atom_norm == 0:
        factors.pop()
    return deltas


def _push_front(S: GarsideStructure, factors: list[Simple], s: Simple) -> int:
    """Prepend s to a left-weighted list and slide it forward into normal form.

    The mirror of `_push`, for left multiplication: by the domino rule,
    sliding the pair at p keeps the pair at p-1 left-weighted, so one
    rightward pass repairs the list and stops at the first pair that does
    not change.  When the right slot of a pair empties, what follows it is
    already left-weighted behind the left slot, so the slot is deleted and
    the pass stops.  A Delta can only form at the front, and at most one:
    it is deleted there, and Delta^r · Delta · list needs no twist.

    Returns the number of Deltas split off the front (0 or 1).
    """
    if s.atom_norm == 0:
        return 0
    factors.insert(0, s)
    a = s
    for p in range(1, len(factors)):
        # a is at p - 1; slide the pair (a, factors[p]).
        b = factors[p]
        pair = a.slides.get(b)
        if pair is None:
            pair = a.slides[b] = S.slide(a, b)
        if pair[0] is a:
            break
        factors[p - 1], a = pair
        if a.atom_norm == 0:
            del factors[p]
            break
        factors[p] = a
    if factors[0] is S.delta():
        del factors[0]
        return 1
    return 0


def normalize(structure: GarsideStructure, delta_power: int, raw_factors: Iterable[Simple]) -> Element:
    """The unique normal form of Delta^delta_power · (product of raw factors).

    Raw factors merge into a pending simple while the slide row of the
    pair says their product is simple (its right slot is the identity);
    otherwise the left-weighted left slot is pushed and the right slot
    becomes the pending simple.  The Deltas the pushes report are owed at
    the back: Delta^owed · s = tau^{-owed}(s) · Delta^owed, so each later
    push is twisted by tau^{-owed} and the finished list once by tau^owed.
    """
    S = structure
    identity = S.identity_simple()
    factors: list[Simple] = []
    owed = 0
    pending = identity
    for s in raw_factors:
        if s.structure is not S:
            raise StructureMismatchError("factor belongs to a different structure")
        pair = pending.slides.get(s)
        if pair is None:
            pair = pending.slides[s] = S.slide(pending, s)
        a, b = pair
        if b is identity:
            pending = a
        else:
            owed += _push(S, factors, S.twist(-owed)[a] if owed else a) or 0
            pending = b
    owed += _push(S, factors, S.twist(-owed)[pending] if owed else pending) or 0
    if owed:
        factors = map(S.twist(owed).__getitem__, factors)
    return Element(S, delta_power + owed, tuple(factors))


def normalize_word(structure: GarsideStructure, word: Sequence[tuple[Simple, int]]) -> Element:
    """The normal form of s_1^e_1 · ... · s_m^e_m, with one `normalize` call.

    Read from the right, each Delta moves to the front, s·Delta^d =
    Delta^d·tau^d(s), and s^{-1} = Delta^{-1}·left_complement(s), so the
    word becomes Delta^d · (one positive raw factor per letter).
    """
    S = structure
    delta = S.delta()
    raw = []
    d = 0
    for s, exponent in reversed(word):
        if s is delta:
            d += exponent
        elif exponent > 0:
            raw += [S.twist(d)[s]] * exponent
        else:
            complement = S.left_complement(s)
            for _ in range(-exponent):
                raw.append(S.twist(d)[complement])
                d -= 1
    return normalize(S, d, reversed(raw))


def simple_element(s: Simple) -> Element:
    """The element represented by a single simple (identity and Delta allowed)."""
    S = s.structure
    if s is S.delta():
        return Element(S, 1, ())
    if s.atom_norm == 0:
        return Element(S, 0, ())
    return Element(S, 0, (s,))


def multiply(g: Element, h: Element) -> Element:
    """Normal form of g·h.

    Uses Delta^u a Delta^v b = Delta^{u+v} tau^v(a) b, then pushes the
    factors of h one at a time onto the twisted factors of g.  The Deltas
    the pushes report are owed at the back, as in `normalize`.  Once a push
    changes nothing, the rest of h is already left-weighted and is appended
    as it is, after the final twist.
    """
    if g.structure is not h.structure:
        raise StructureMismatchError("product of elements from different structures")
    S = g.structure
    if h.is_identity:
        return g
    if g.is_identity:
        return h
    factors = list(map(S.twist(h.inf).__getitem__, g.factors) if h.inf else g.factors)
    owed = 0
    rest: tuple[Simple, ...] = ()
    for i, s in enumerate(h.factors):
        deltas = _push(S, factors, S.twist(-owed)[s] if owed else s)
        if deltas is None:
            rest = h.factors[i + 1:]
            break
        owed += deltas
    if owed:
        factors = map(S.twist(owed).__getitem__, factors)
    return Element(S, g.inf + h.inf + owed, (*factors, *rest))


def invert(g: Element) -> Element:
    """Normal form of g^{-1}.

    (Delta^r s_1 ... s_k)^{-1} = Delta^{-r-k} · u_k ... u_1 where
    u_i = tau^{-(r+i)}(right_complement(s_i)).  This is already the normal
    form: complements of proper simples are proper, and applying
    tau^{r+i+1} to the pair (u_{i+1}, u_i) turns its left-weightedness test
    into tau(right_complement(s_i) ∧ s_{i+1}) = identity, which holds because
    (s_i, s_{i+1}) is left-weighted.
    """
    S = g.structure
    r, k = g.inf, len(g.factors)
    factors = tuple(
        S.twist(-(r + i + 1))[S.right_complement(g.factors[i])]
        for i in range(k - 1, -1, -1)
    )
    return Element(S, -(r + k), factors)


def power(g: Element, n: int) -> Element:
    """Normal form of g^n by square and multiply; g^{-n} = (g^n)^{-1}.

    Raises `ResourceLimitError` after the step at which the running result
    or the squared base has more than MAX_POWER_FACTORS factors.
    """
    if n < 0:
        return invert(power(g, -n))
    result = Element(g.structure, 0, ())
    base = g
    while n:
        if n & 1:
            result = multiply(result, base)
        n >>= 1
        if n:
            base = multiply(base, base)
        if max(len(result.factors), len(base.factors)) > MAX_POWER_FACTORS:
            raise ResourceLimitError(f"power has more than {MAX_POWER_FACTORS} factors")
    return result


def word_length(g: Element) -> int:
    """Shortest word length of g over the simples and their inverses."""
    if g.inf >= 0:
        return g.sup
    if g.sup <= 0:
        return -g.inf
    return g.canonical_length


# ----------------------------------------------------------------------
# class invariants: the degree vector and the braid permutations
# ----------------------------------------------------------------------


def degree(g: Element) -> tuple[int, ...]:
    """The degree vector inf·deg(Delta) + sum of deg(s_i), a homomorphism G -> Z^k."""
    S = g.structure
    total = [g.inf * d for d in S.degree(S.delta())]
    for s in g.factors:
        for c, d in enumerate(S.degree(s)):
            total[c] += d
    return tuple(total)


def permutations(g: Element) -> tuple[tuple[int, ...] | None, ...]:
    """The permutation of g on each braid component, None on the others.

    A braid's permutation is a homomorphism to S_n.  Delta's is the order
    reversal, an involution, so Delta^inf contributes it exactly when inf
    is odd; permutations compose left to right, as the payloads do.
    """
    S = g.structure
    out = list(S.permutations(S.delta() if g.inf % 2 else S.identity_simple()))
    for s in g.factors:
        for c, p in enumerate(S.permutations(s)):
            if p is not None:
                out[c] = tuple(map(p.__getitem__, out[c]))
    return tuple(out)


def cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted cycle lengths of a permutation."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def cycle_types(g: Element) -> tuple[tuple[int, ...] | None, ...]:
    """The cycle type of g's permutation on each braid component, None elsewhere."""
    return tuple(None if p is None else cycle_type(p) for p in permutations(g))


def validate_element(g: Element) -> None:
    """Check every normal-form invariant; raises ValueError when broken."""
    S = g.structure
    identity = S.identity_simple()
    delta = S.delta()
    for s in g.factors:
        if s.structure is not S:
            raise ValueError("factor owned by a different structure")
        if s == identity or s == delta:
            raise ValueError("normal form contains an identity or Delta factor")
        if s.atom_norm != S._norm(s.payload):
            raise ValueError("stale atom norm on a factor")
    for a, b in zip(g.factors, g.factors[1:]):
        if S.meet(S.right_complement(a), b) != identity:
            raise ValueError(f"adjacent pair not left-weighted: {a}, {b}")
