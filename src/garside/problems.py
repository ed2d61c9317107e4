"""
Power, root, proper-power and generalized-power solvers.

Each solver is built on the exactness of translation numbers: if h^n is
conjugate to g and h != 1, then |n| = t_D(g) / t_D(h), so candidate
exponents are pinned down before any conjugacy test runs.  A root h of g
of degree n has t_inf(h) = t_inf(g)/n and t_sup(h) = t_sup(g)/n, by
homogeneity and conjugacy invariance.  Every translation limit has
denominator at most N = ||Delta||, so a degree for which either quotient
fails that bound has no root.  Otherwise the root search scans the normal
forms of the single window inf = floor(t_inf(g)/n), sup = ceil(t_sup(g)/n):
since inf_s = floor(t_inf) and sup_s = ceil(t_sup), these are the summit
values of every root.  Since t_len(g) = n·t_len(h), and a positive t_len(h)
is at least 1/N^2, the proper-power search stops at degree N^2·t_len(g)
when t_len(g) > 0.

Two exact class invariants reject before any power, summit or
enumeration: the degree homomorphism G -> Z^k from the atom weights, and
on each braid component the cycle type of the permutation (a homomorphism
to S_n).  If h^n is conjugate to g then n·deg(h) = deg(g), and perm(h)^n
has the cycle type of perm(g) while perm(h) has sign (-1)^deg(h).  So the
root search answers no when n does not divide deg(g), or when no
permutation of that sign has an n-th power of g's cycle type (a cached
set of root cycle types per strand count, n, sign and cycle type); it only
enumerates the window's normal forms of degree deg(g)/n, and drops a
candidate whose cycle types no root can have before its power and summit.
The proper-power search tries only the divisors of the gcd of deg(g)'s
coordinates, the power solver only the exponents with deg(g) = ±m·deg(h),
and the generalized-power solver computes its powers only when
p·deg(g) = ±q·deg(h).  These tests only ever reject, and the enumeration
order is unchanged, so every positive answer is the one the unpruned
search finds.  The exponential worst case is accepted: a search that passes
its cap raises `ResourceLimitError` rather than give a wrong answer.

Every positive answer carries a certificate (a conjugating witness where it
applies) that re-verifies by direct normal-form arithmetic.  The power and
generalized-power solvers fix their exponents as above and then make one
comparison, exact or up to conjugacy (`_certify`), per candidate, identity
inputs included.  By torsion-freeness the identity answers n = 0 as a power
of anything, is its own root of every degree, is no proper power, and
solves the generalized-power problem, as (1, 1), only with itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator
from math import ceil, floor, gcd, lcm

from .conjugacy import SummitData, are_conjugate, summit
from .core import (
    Element,
    ResourceLimitError,
    StructureMismatchError,
    cycle_types,
    degree,
    invert,
    multiply,
    power,
)
from .enumeration import factor_sequences
from .translation import TranslationTriple, translation_number, translation_triple

DEFAULT_CANDIDATE_CAP = 1_000_000


class UnsupportedStructureError(RuntimeError):
    """The structure lacks a certificate required by the requested solver."""


@dataclass(frozen=True)
class ProblemAnswer:
    """Solver outcome: a certified solution or a proven no.

    A solution sets `n` and the other fields its problem certifies; a
    proven no is `ProblemAnswer()`, with no field set.  `witness`
    conjugates the certified power onto the queried element
    (w^{-1} · certified · w = target) and is None in plain-equality answers.
    """

    n: int | None = None
    m: int | None = None
    root: Element | None = None
    witness: Element | None = None

    @property
    def is_solution(self) -> bool:
        return self.n is not None


def _certify(x: Element, y: Element, up_to_conjugacy: bool, **found) -> ProblemAnswer:
    """The solution `found` if x = y, or, up to conjugacy, if
    `are_conjugate(x, y)` finds w with w^{-1} · x · w = y, with w as its
    witness; a proven no otherwise."""
    if not up_to_conjugacy:
        return ProblemAnswer(**found) if x == y else ProblemAnswer()
    witness = are_conjugate(x, y)
    return ProblemAnswer() if witness is None else ProblemAnswer(**found, witness=witness)


def solve_power(g: Element, h: Element, up_to_conjugacy: bool = False) -> ProblemAnswer:
    """Find n with h^n equal (or conjugate) to g.

    When g or h is 1, n = 0 is the one candidate: the group is torsion-free,
    so h^n = 1 with h != 1 only for n = 0.  Otherwise the only candidate
    magnitude is m = t_D(g)/t_D(h), tried only when it is an integer; the
    answer is +m or -m according to whether h^m matches g or g^{-1}, and an
    exponent n is tried only when deg(g) = n·deg(h).
    """
    if g.structure is not h.structure:
        raise StructureMismatchError("power query across structures")
    if g.is_identity or h.is_identity:
        return _certify(Element(g.structure, 0, ()), g, up_to_conjugacy, n=0)
    ratio = translation_number(g) / translation_number(h)
    dg, dh = degree(g), degree(h)
    for n in (ratio.numerator, -ratio.numerator):
        if ratio.denominator == 1 and dg == tuple(n * d for d in dh):
            answer = _certify(power(h, n), g, up_to_conjugacy, n=n)
            if answer.is_solution:
                return answer
    return ProblemAnswer()


def _partitions(k: int, smallest: int = 1) -> Iterator[tuple[int, ...]]:
    """The partitions of k into parts of at least `smallest`, as sorted cycle types."""
    if k == 0:
        yield ()
        return
    for first in range(smallest, k + 1):
        for rest in _partitions(k - first, first):
            yield (first, *rest)


def _power_cycle_type(cycles: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The cycle type of σ^n for σ of the given type: an L-cycle of σ
    falls into gcd(L, n) cycles of length L/gcd(L, n)."""
    out = []
    for length in cycles:
        parts = gcd(length, n)
        out += [length // parts] * parts
    return tuple(sorted(out))


@functools.cache
def _root_types(k: int, n: int, parity: int, cycles: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """The cycle types of those σ in S_k of the given parity whose n-th power
    has cycle type `cycles`.

    σ^n depends on n only through gcd(L, n) for cycle lengths L <= k, so
    callers pass n modulo lcm(1..k).
    """
    return frozenset(p for p in _partitions(k)
                     if (k - len(p)) % 2 == parity and _power_cycle_type(p, n) == cycles)


def _root_cycle_types(degree_g: tuple[int, ...], types: tuple, n: int) -> tuple | None:
    """The cycle types a root of degree n may have on each braid component
    (None on the others), or None when deg(g) and g's cycle types admit no root.

    A root h has n·deg(h) = deg(g), and on each braid component perm(h)^n
    has the cycle type of perm(g) while perm(h) has sign (-1)^deg(h).
    """
    if any(d % n for d in degree_g):
        return None
    allowed = []
    for d, cycles in zip(degree_g, types):
        roots = None
        if cycles is not None:
            k = sum(cycles)
            roots = _root_types(k, n % lcm(*range(1, k + 1)), (d // n) % 2, cycles)
            if not roots:
                return None
        allowed.append(roots)
    return tuple(allowed)


def _root_search(triple: TranslationTriple, sd: SummitData, n: int) -> ProblemAnswer:
    """Find h with h^n conjugate to g, given the triple and summit of g and n >= 2.

    Any root h has t_inf(h) = t_inf(g)/n and t_sup(h) = t_sup(g)/n, and the
    translation limits of every element have denominator at most N, so n is
    rejected at once when either quotient fails that bound, or when g's
    degree and cycle types admit no root (`_root_cycle_types`).
    Otherwise some conjugate of h lies in its super summit set, where
    inf = floor(t_inf(h)) and sup = ceil(t_sup(h)); the candidates are the
    normal forms of that one (inf, sup) window of degree deg(g)/n, and a
    candidate whose cycle types no root can have is dropped before its
    power and summit; so h^n shares g's class invariant and goes straight
    to `sd.conjugator_to`.  The witness satisfies w^{-1} · h^n · w = g.
    Raises `ResourceLimitError` after `DEFAULT_CANDIDATE_CAP` candidates.
    """
    S = sd.representative.structure
    N = S.delta_norm()
    t_inf, t_sup = triple.t_inf / n, triple.t_sup / n
    if t_inf.denominator > N or t_sup.denominator > N:
        return ProblemAnswer()
    degree_g, types = sd.invariant
    allowed = _root_cycle_types(degree_g, types, n)
    if allowed is None:
        return ProblemAnswer()
    lo, hi = floor(t_inf), ceil(t_sup)
    rest = tuple(d // n - lo * e for d, e in zip(degree_g, S.degree(S.delta())))
    for scanned, factors in enumerate(factor_sequences(S, hi - lo, rest), start=1):
        if scanned > DEFAULT_CANDIDATE_CAP:
            raise ResourceLimitError(f"root search exceeded {DEFAULT_CANDIDATE_CAP} candidates")
        h = Element(S, lo, factors)
        if not all(t is None or t in a for t, a in zip(cycle_types(h), allowed)):
            continue
        w = sd.conjugator_to(power(h, n))
        if w is not None:
            return ProblemAnswer(n=n, root=h, witness=invert(w))
    return ProblemAnswer()


def solve_root_conjugacy(g: Element, n: int) -> ProblemAnswer:
    """Find h with h^n conjugate to g, or prove there is none.

    The witness satisfies w^{-1} · h^n · w = g.
    """
    if n < 1:
        raise ValueError("root degree must be at least 1")
    if n == 1:
        return ProblemAnswer(n=1, root=g, witness=Element(g.structure, 0, ()))
    return _root_search(translation_triple(g), summit(g), n)


def solve_root(g: Element, n: int) -> ProblemAnswer:
    """Find h with h^n = g exactly: conjugate the root search answer back."""
    answer = solve_root_conjugacy(g, n)
    if not answer.is_solution:
        return answer
    w = answer.witness
    exact = multiply(multiply(invert(w), answer.root), w)
    return ProblemAnswer(n=n, root=exact)


def solve_proper_power_conjugacy(g: Element) -> ProblemAnswer:
    """Find (h, n >= 2) with h^n conjugate to g.

    Any solution has n = t_D(g)/t_D(h) <= N·t_D(g), and n <= N^2·t_len(g)
    when t_len(g) > 0, since t_len(h) is then a positive difference of two
    limits with denominators <= N.  So the search reduces to finitely many
    root problems, tried in increasing n on one triple and one summit of g;
    every degree beyond the t_len bound fails `_root_search`'s denominator
    test anyway.  Since n·deg(h) = deg(g), only the divisors of the gcd of
    deg(g)'s coordinates are tried, or every n when deg(g) = 0.  The
    identity is no proper power: h = 1 is excluded, and t_D(1) = 0 leaves
    no degree to try.
    """
    N = g.structure.delta_norm()
    triple = translation_triple(g)
    sd = summit(g)
    bound = N * triple.t_D
    if triple.t_len > 0:
        bound = min(bound, N * N * triple.t_len)
    bound = floor(bound)
    common = gcd(*degree(g))
    for n in _divisors(common, bound) if common else range(2, bound + 1):
        answer = _root_search(triple, sd, n)
        if answer.is_solution:
            return answer
    return ProblemAnswer()


def _divisors(m: int, bound: int) -> Iterator[int]:
    """The divisors n of m > 0 with 2 <= n <= bound, increasing.

    The trial division up to sqrt(m) yields each divisor below it as soon
    as it finds it, so a search that stops at a small degree scans no
    further; the divisors above sqrt(m) come last.
    """
    large = []
    i = 1
    while i * i <= m and i <= bound:
        if m % i == 0:
            if i > 1:
                yield i
            if i * i != m and m // i <= bound:
                large.append(m // i)
        i += 1
    yield from reversed(large)


def solve_generalized_power(g: Element, h: Element, up_to_conjugacy: bool = False) -> ProblemAnswer:
    """Find nonzero (n, m) with g^n equal (or conjugate) to h^m.

    Requires a structure-level unique-root certificate: a positive r such
    that every r-th power lies in a finite-index subgroup with unique roots.
    With p/q = t_D(h)/t_D(g) reduced, a solution exists if and only if
    g^{pr} matches h^{qr} or h^{-qr}, so the check is a single comparison,
    made only for the signs with p·deg(g) = ±q·deg(h).  When g or h is 1,
    (1, 1) is the one candidate: g^n = 1 with n != 0 only for g = 1.
    """
    if g.structure is not h.structure:
        raise StructureMismatchError("generalized power query across structures")
    r = g.structure.unique_root_exponent
    if r is None:
        raise UnsupportedStructureError(
            f"{g.structure.descriptor()} declares no unique-root exponent"
        )
    if g.is_identity or h.is_identity:
        return _certify(g, h, up_to_conjugacy, n=1, m=1)
    ratio = translation_number(h) / translation_number(g)
    p, q = ratio.numerator, ratio.denominator
    dg, dh = degree(g), degree(h)
    for sign in (1, -1):
        if tuple(p * d for d in dg) == tuple(sign * q * d for d in dh):
            answer = _certify(power(g, p * r), power(h, sign * q * r), up_to_conjugacy,
                              n=p * r, m=sign * q * r)
            if answer.is_solution:
                return answer
    return ProblemAnswer()
