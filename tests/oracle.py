"""
Brute-force oracles for tests.

These are deliberately naive and share only the normal-form arithmetic with
the algorithms they audit: word lengths come from breadth-first search over
the simple generators, summit infima from exhaustive conjugation up to a
word-length cap, super summit sets from conjugation by every simple and,
for the closure's order, witnesses and cap, from conjugation by minimal
simples with every conjugate and witness multiplied out, the witness of a
closure's parent links multiplied out one simple at a time,
translation estimates from the one-power bracket that must contain the exact
value for every n >= 1, the exact translation triple from two summits, one
of g^n and one of g^{-n}, and from the two brackets of one summit of g^n,
with no rigid read-off, bounded-denominator rationals in an interval by a
scan in rational arithmetic, conjugacy by summits and the whole super
summit set alone with no class-invariant prefilter and the witness
multiplied out piece by piece, root searches over every
(inf, sup) window that homogeneity alone allows and over the one window
with no degree or permutation pruning, proper-power searches over every
degree up to N·t_D, the degree bounds of proper simples by taking the
degree of each, left-weighted factor sequences by one recursive generator
per factor, normal forms by a worklist of dirty pairs,
token words evaluated one `power` and one `multiply` per token, and the
product of two simples and an atom word of each simple by the braid and
torus families' own formulas, not the lattice derivation in `core`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from operator import le, sub
from typing import Iterator

from garside import (
    BraidStructure,
    Element,
    GarsideStructure,
    ProblemAnswer,
    ResourceLimitError,
    SummitData,
    Simple,
    TorusStructure,
    TranslationTriple,
    invert,
    multiply,
    normalize,
    power,
    simple_element,
    summit,
    translation_triple,
)
from garside import conjugacy, problems
from garside.conjugacy import Closure, _min_simple, _sss_closure
from garside.enumeration import followers, proper_simples


class MultipleCandidatesError(RuntimeError):
    """More than one bounded-denominator rational lies in the interval."""


@dataclass(frozen=True)
class Bracket:
    """A closed interval guaranteed to contain an exact translation value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty bracket")

    def __contains__(self, value: Fraction) -> bool:
        return self.lo <= value <= self.hi


def _generators(S) -> list[Element]:
    """All nontrivial simples and their inverses, as elements."""
    out = []
    for s in S.enumerate_simples():
        if s.atom_norm == 0:
            continue
        elt = simple_element(s)
        out.append(elt)
        out.append(invert(elt))
    return out


def bfs_word_length(g: Element, cap: int = 8) -> int | None:
    """The true shortest word length of g over the simples and inverses.

    Breadth-first search by right multiplication; None when the length
    exceeds the cap.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    start = Element(g.structure, 0, ())
    if g == start:
        return 0
    gens = _generators(g.structure)
    seen = {start}
    frontier = [start]
    for depth in range(1, cap + 1):
        nxt = []
        for h in frontier:
            for x in gens:
                h2 = multiply(h, x)
                if h2 in seen:
                    continue
                if h2 == g:
                    return depth
                seen.add(h2)
                nxt.append(h2)
        frontier = nxt
    return None


def brute_summit_inf(g: Element, conj_len_cap: int = 6) -> int:
    """Max of inf over all conjugates w^{-1} g w with |w| <= conj_len_cap.

    A certified lower bound for inf_s(g); on instances small enough that the
    bound is attained it equals inf_s(g) exactly.
    """
    gens = _generators(g.structure)
    pairs = [(x, invert(x)) for x in gens]
    best = g.inf
    seen = {g}
    frontier = [g]
    for _ in range(conj_len_cap):
        nxt = []
        for h in frontier:
            for x, x_inv in pairs:
                h2 = multiply(multiply(x_inv, h), x)
                if h2 in seen:
                    continue
                seen.add(h2)
                nxt.append(h2)
                if h2.inf > best:
                    best = h2.inf
        frontier = nxt
    return best


def brute_sss_closure(rep: Element) -> dict[Element, Element]:
    """The super summit set of rep as {element: witness}, by every simple.

    Closure of rep under conjugation by all nontrivial simples, keeping
    exactly the conjugates with the same (inf, sup); each witness w
    satisfies w^{-1} · rep · w = element.  rep must lie in its super summit
    set.
    """
    S = rep.structure
    conjugators = [
        (simple_element(s), invert(simple_element(s)))
        for s in S.enumerate_simples()
        if s.atom_norm > 0
    ]
    seen: dict[Element, Element] = {rep: Element(S, 0, ())}
    frontier = [rep]
    while frontier:
        nxt = []
        for h in frontier:
            for s_elt, s_inv in conjugators:
                h2 = multiply(multiply(s_inv, h), s_elt)
                if h2.inf != rep.inf or h2.sup != rep.sup or h2 in seen:
                    continue
                seen[h2] = multiply(seen[h], s_elt)
                nxt.append(h2)
        frontier = nxt
    return seen


def eager_sss_closure(rep: Element, cap: int) -> dict[Element, Element]:
    """The super summit set of rep as {element: witness}, by minimal simples.

    The breadth-first walk of `_sss_closure` over the sorted minimal simples
    of each element, with the same cap test after each insert, but with
    each conjugate and each witness w (w^{-1} · rep · w = element) formed
    by `multiply` and `invert` as it is reached.
    """
    S = rep.structure
    atoms = [S.atom_simple(i) for i in range(len(S.atoms()))]
    seen: dict[Element, Element] = {rep: Element(S, 0, ())}
    frontier = [rep]
    while frontier:
        nxt = []
        for h in frontier:
            h_inv = invert(h)
            for c in sorted({_min_simple(h, h_inv, a) for a in atoms}):
                c_elt = simple_element(c)
                h2 = multiply(multiply(invert(c_elt), h), c_elt)
                if h2 in seen:
                    continue
                seen[h2] = multiply(seen[h], c_elt)
                nxt.append(h2)
                if len(seen) > cap:
                    raise ResourceLimitError(
                        f"super summit set exceeds cap of {cap} elements"
                    )
        frontier = nxt
    return seen


def estimate_translation(g: Element, n: int) -> Bracket:
    """The bracket [inf_s(g^n)/n, inf_s(g^n)/n + 1/n] around t_inf(g)."""
    if n < 1:
        raise ValueError("power must be at least 1")
    a = summit(power(g, n)).inf_s
    lo = Fraction(a, n)
    return Bracket(lo, lo + Fraction(1, n))


def two_summit_triple(g: Element) -> TranslationTriple:
    """The exact translation triple from two summits, at g and at g^{-1}.

    t_inf(g) is the one rational with denominator <= N in the power-n
    bracket of g, and t_sup(g) = -t_inf(g^{-1}) the negated one in the
    bracket of g^{-1}, with n = max(N^2, 2).
    """
    N = g.structure.delta_norm()
    n = max(N * N, 2)

    def t_inf(x: Element) -> Fraction:
        bracket = estimate_translation(x, n)
        return scan_rational_in_interval(bracket.lo, bracket.hi, N)

    return TranslationTriple(t_inf(g), -t_inf(invert(g)))


def power_summit_triple(g: Element) -> TranslationTriple:
    """The exact translation triple from the one summit of g^n, n = max(N^2, 2),
    for every g, rigid or not: t_inf is the one rational with denominator
    <= N in [inf_s/n, (inf_s + 1)/n] and t_sup the one in
    [(sup_s - 1)/n, sup_s/n], each found by scan."""
    N = g.structure.delta_norm()
    n = max(N * N, 2)
    sd = summit(power(g, n))
    return TranslationTriple(
        scan_rational_in_interval(Fraction(sd.inf_s, n), Fraction(sd.inf_s + 1, n), N),
        scan_rational_in_interval(Fraction(sd.sup_s - 1, n), Fraction(sd.sup_s, n), N),
    )


def scan_rational_in_interval(lo: Fraction, hi: Fraction, maxden: int) -> Fraction | None:
    """The unique rational with denominator <= maxden in [lo, hi], if any.

    Every p/q with q <= maxden in the interval, found by scanning q and the
    Fraction bounds ceil(lo·q) and floor(hi·q); None when there is none,
    MultipleCandidatesError when there are several.
    """
    if lo > hi:
        raise ValueError("empty interval")
    found: set[Fraction] = set()
    for q in range(1, maxden + 1):
        for p in range(ceil(lo * q), floor(hi * q) + 1):
            found.add(Fraction(p, q))
    if len(found) > 1:
        raise MultipleCandidatesError(
            f"{len(found)} rationals with denominator <= {maxden} in [{lo}, {hi}]"
        )
    return found.pop() if found else None


def piecewise_witness(sd: SummitData) -> Element:
    """The witness a_1 ... a_p · (s_q ... s_1)^{-1} of a summit from its
    word, whose cycling conjugators a_i (exponent 1) precede the factors
    s_j that decycling moves (exponent -1), by two normalizations, an
    inverse and a product."""
    S = sd.representative.structure
    cycled = [a for a, e in sd.word if e == 1]
    decycled = [s for s, e in sd.word if e == -1]
    assert [e for _, e in sd.word] == [1] * len(cycled) + [-1] * len(decycled)
    return multiply(normalize(S, 0, cycled), invert(normalize(S, 0, decycled[::-1])))


def link_witness(closure: Closure, h: Element) -> Element:
    """The w with w^{-1} · rep · w = h, for h a key of a closure rooted at
    rep: the conjugators on the parent links from h back to rep, multiplied
    out one simple at a time."""
    w = Element(h.structure, 0, ())
    link = closure[h]
    while link is not None:
        h, c = link
        w = multiply(simple_element(c), w)
        link = closure[h]
    return w


@functools.lru_cache(maxsize=1)
def _whole_set(rep: Element, cap: int) -> Closure:
    """The whole super summit set of rep; kept for the one rep a search
    asks about again and again."""
    return _sss_closure(rep, cap)


def invariant_free_conjugator(sd: SummitData, h: Element) -> Element | None:
    """With sd = summit(g): w with w^{-1} · g · w = h, or None.

    An independent reference for `SummitData.conjugator_to`, which compares
    no class invariant either: h is summited against sd, its representative
    looked up in the whole closure, drained at once rather than walked
    lazily, and the witness multiplied out piece by piece: g's summit
    witness, the path to h's representative and the inverse of h's summit
    witness.
    """
    other = summit(h, target=sd)
    if other is None:
        return None
    closure = _whole_set(sd.representative, conjugacy.DEFAULT_SSS_CAP)
    if other.representative not in closure:
        return None
    path = link_witness(closure, other.representative)
    return multiply(multiply(piecewise_witness(sd), path), invert(piecewise_witness(other)))


def unpruned_root_search(triple: TranslationTriple, sd: SummitData, n: int) -> ProblemAnswer:
    """The one-window root search with no degree or permutation test.

    n is rejected only when t_inf(g)/n or t_sup(g)/n has a denominator
    above N; every normal form of the window (floor(t_inf/n), ceil(t_sup/n))
    is tried through `invariant_free_conjugator`.
    """
    S = sd.representative.structure
    N = S.delta_norm()
    t_inf, t_sup = triple.t_inf / n, triple.t_sup / n
    if t_inf.denominator > N or t_sup.denominator > N:
        return ProblemAnswer()
    lo, hi = floor(t_inf), ceil(t_sup)
    for scanned, factors in enumerate(recursive_factor_sequences(S, hi - lo), start=1):
        if scanned > problems.DEFAULT_CANDIDATE_CAP:
            raise ResourceLimitError("root search exceeded the candidate cap")
        h = Element(S, lo, factors)
        w = invariant_free_conjugator(sd, power(h, n))
        if w is not None:
            return ProblemAnswer(n=n, root=h, witness=invert(w))
    return ProblemAnswer()


def windowed_root_search(triple: TranslationTriple, sd: SummitData, n: int) -> ProblemAnswer:
    """Find h with h^n conjugate to g by scanning every homogeneity window.

    Homogeneity alone puts the inf of a root's summit in
    [t_inf(g)/n - 1, t_inf(g)/n] and its sup in [t_sup(g)/n, t_sup(g)/n + 1];
    the candidates are the normal forms over every (inf, sup) pair of
    integers there, narrowest window first.  Exponents n for which t_D(g)/n
    has a denominator above N^2 are rejected, and conjugacy is tested by
    `invariant_free_conjugator`.  The witness satisfies
    w^{-1} · h^n · w = g.
    """
    S = sd.representative.structure
    N = S.delta_norm()
    if (triple.t_D / n).denominator > N * N:
        return ProblemAnswer()
    t_inf, t_sup = triple.t_inf / n, triple.t_sup / n
    infs = range(ceil(t_inf - 1), floor(t_inf) + 1)
    sups = range(ceil(t_sup), floor(t_sup + 1) + 1)
    windows = sorted(
        ((lo, hi) for lo in infs for hi in sups if hi >= lo),
        key=lambda w: (w[1] - w[0], -w[0]),
    )
    scanned = 0
    for lo, hi in windows:
        for factors in recursive_factor_sequences(S, hi - lo):
            scanned += 1
            if scanned > problems.DEFAULT_CANDIDATE_CAP:
                raise ResourceLimitError("root search exceeded the candidate cap")
            h = Element(S, lo, factors)
            w = invariant_free_conjugator(sd, power(h, n))
            if w is not None:
                return ProblemAnswer(n=n, root=h, witness=invert(w))
    return ProblemAnswer()


def every_degree_proper_power(g: Element) -> ProblemAnswer:
    """Find (h, n >= 2) with h^n conjugate to g, trying every n in 2..N·t_D(g).

    The t_D bound alone, with no t_len bound: each degree runs
    `problems._root_search` on one triple and one summit of g.
    """
    if g.is_identity:
        return ProblemAnswer()
    triple, sd = translation_triple(g), summit(g)
    for n in range(2, floor(g.structure.delta_norm() * triple.t_D) + 1):
        answer = problems._root_search(triple, sd, n)
        if answer.is_solution:
            return answer
    return ProblemAnswer()


def enumerated_degree_bounds(S: GarsideStructure) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The least and greatest degree of a proper simple, per coordinate,
    taken over the degree of every proper simple."""
    columns = tuple(zip(*(S.degree(s) for s in proper_simples(S))))
    return tuple(map(min, columns)), tuple(map(max, columns))


def recursive_factor_sequences(
    S: GarsideStructure, length: int, degree: tuple[int, ...] | None = None
) -> Iterator[tuple[Simple, ...]]:
    """The left-weighted sequences of `length` proper simples, by one
    recursive generator per factor, with the degree cut of
    `enumeration.factor_sequences` on the enumerated degree bounds."""
    stack: list[Simple] = []
    if degree is not None:
        lows, highs = enumerated_degree_bounds(S)
        reach = [(tuple(k * v for v in lows), tuple(k * v for v in highs))
                 for k in range(length + 1)]
        low, high = reach[length]
        if not (all(map(le, low, degree)) and all(map(le, degree, high))):
            return

    def walk(rest) -> Iterator[tuple[Simple, ...]]:
        if len(stack) == length:
            yield tuple(stack)
            return
        options = followers(stack[-1]) if stack else proper_simples(S)
        if rest is not None:
            low, high = reach[length - len(stack) - 1]
        for s in options:
            after = rest
            if rest is not None:
                after = tuple(map(sub, rest, S.degree(s)))
                if not (all(map(le, low, after)) and all(map(le, after, high))):
                    continue
            stack.append(s)
            yield from walk(after)
            stack.pop()

    yield from walk(degree)


def stack_normalize(S: GarsideStructure, delta_power: int, raw_factors) -> Element:
    """Normal form of Delta^delta_power · (raw factors) by a two-way worklist.

    Identity factors are dropped and every adjacent pair starts dirty.
    Fixing a pair can only disturb its two neighbours, which are marked
    dirty again, so the loop ends with every pair left-weighted; Deltas
    bubble to the front and identity holes to the back, and both are
    trimmed.  Slides come straight from `S.slide`, never from the rows.
    """
    factors: list[Simple] = [s for s in raw_factors if s.atom_norm != 0]
    dirty = list(range(len(factors) - 1))
    while dirty:
        p = dirty.pop()
        if p < 0 or p + 1 >= len(factors):
            continue
        a2, b2 = S.slide(factors[p], factors[p + 1])
        if a2 is factors[p]:
            continue
        factors[p], factors[p + 1] = a2, b2
        dirty += [p - 1, p + 1]
    lead, tail = 0, len(factors)
    while lead < tail and factors[lead] is S.delta():
        lead += 1
    while tail > lead and factors[tail - 1] is S.identity_simple():
        tail -= 1
    return Element(S, delta_power + lead, tuple(factors[lead:tail]))


def token_word_element(S: GarsideStructure, terms: tuple[tuple[str, int], ...]) -> Element:
    """The element of (generator, exponent) tokens, one power and one product per token."""
    result = Element(S, 0, ())
    for name, exponent in terms:
        if name == "D":
            term = Element(S, exponent, ())
        else:
            atom = S.atom_by_name()[name]
            term = power(simple_element(S.atom_simple(atom.index)), exponent)
        result = multiply(result, term)
    return result


def braid_descent_word(payload: tuple[int, ...]) -> tuple[int, ...]:
    """Repeatedly peel the smallest position descent of a permutation; the
    result is the lexicographically least reduced word."""
    word = []
    p = list(payload)
    i = 0
    while i < len(p) - 1:
        if p[i] > p[i + 1]:
            word.append(i)
            p[i], p[i + 1] = p[i + 1], p[i]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(word)


def reference_atom_word(S: GarsideStructure, payload) -> tuple[int, ...]:
    """An atom word of a simple: the braid descent peel, x^N for a torus
    Delta, and a product's left word followed by its offset right word."""
    if isinstance(S, BraidStructure):
        return braid_descent_word(payload)
    if isinstance(S, TorusStructure):
        tag, k = payload
        if tag == "e":
            return ()
        if tag == "D":
            return (0,) * S.exp_x
        return (0,) * k if tag == "x" else (1,) * k
    offset = len(S.left.atoms())
    left = reference_atom_word(S.left, payload[0].payload)
    return left + tuple(offset + i for i in reference_atom_word(S.right, payload[1].payload))


def reference_product(S: GarsideStructure, a, c):
    """The payload of a·c for simple payloads with c dividing the right
    complement of a: braid permutations compose, torus powers of one letter
    add up to at most Delta, and products go componentwise."""
    if isinstance(S, BraidStructure):
        return tuple(c[a[i]] for i in range(len(a)))
    if isinstance(S, TorusStructure):
        if a[0] == "e":
            return c
        if c[0] == "e":
            return a
        if a[0] == c[0] != "D":
            total, chain = a[1] + c[1], S.exp_x if a[0] == "x" else S.exp_y
            if total < chain:
                return (a[0], total)
            if total == chain:
                return ("D", 0)
        raise AssertionError("product of simples is not simple")
    return tuple(
        side.make_simple(reference_product(side, x.payload, y.payload))
        for side, x, y in zip((S.left, S.right), a, c)
    )
