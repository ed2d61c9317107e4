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
when t_len(g) > 0.  The exponential worst case is accepted and surfaced
as a resource-limit outcome, never as a wrong answer.

Every positive answer carries a certificate (a conjugating witness where it
applies) that re-verifies by direct normal-form arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import ceil, floor

from .conjugacy import ResourceLimitError, SummitData, summit
from .core import Element, StructureMismatchError, identity_element, invert, multiply, power
from .enumeration import factor_sequences
from .translation import TranslationTriple, translation_number, translation_triple

DEFAULT_CANDIDATE_CAP = 1_000_000


class UnsupportedStructureError(RuntimeError):
    """The structure lacks a certificate required by the requested solver."""


class Outcome(enum.Enum):
    SOLUTION = "solution"
    NO_SOLUTION = "no_solution"
    RESOURCE_LIMIT = "resource_limit"


@dataclass(frozen=True)
class ProblemAnswer:
    """Solver outcome: a certified solution, a proven no, or a resource limit.

    Which payload fields are set depends on the problem; `witness` conjugates
    the certified power onto the queried element (w^{-1} · certified · w =
    target) and is None in plain-equality answers.
    """

    outcome: Outcome
    n: int | None = None
    m: int | None = None
    root: Element | None = None
    witness: Element | None = None
    diagnostic: str | None = None

    @property
    def is_solution(self) -> bool:
        return self.outcome is Outcome.SOLUTION

    @property
    def is_no_solution(self) -> bool:
        return self.outcome is Outcome.NO_SOLUTION

    @property
    def is_resource_limit(self) -> bool:
        return self.outcome is Outcome.RESOURCE_LIMIT

    @staticmethod
    def no_solution() -> "ProblemAnswer":
        return ProblemAnswer(Outcome.NO_SOLUTION)

    @staticmethod
    def resource_limit(diagnostic: str) -> "ProblemAnswer":
        return ProblemAnswer(Outcome.RESOURCE_LIMIT, diagnostic=diagnostic)


def solve_power(g: Element, h: Element, up_to_conjugacy: bool = False) -> ProblemAnswer:
    """Find n with h^n equal (or conjugate) to g.

    For g, h != 1 the only candidate magnitude is m = t_D(g)/t_D(h); the
    answer is +m or -m according to whether h^m matches g or g^{-1}.
    """
    if g.structure is not h.structure:
        raise StructureMismatchError("power query across structures")
    if g.is_identity:
        return ProblemAnswer(Outcome.SOLUTION, n=0, witness=identity_element(g.structure))
    if h.is_identity:
        return ProblemAnswer.no_solution()
    try:
        ratio = translation_number(g) / translation_number(h)
        if ratio.denominator != 1:
            return ProblemAnswer.no_solution()
        m = int(ratio)
        for n in (m, -m):
            hn = power(h, n)
            if up_to_conjugacy:
                witness = summit(hn).conjugator_to(g)
                if witness is not None:
                    return ProblemAnswer(Outcome.SOLUTION, n=n, witness=witness)
            elif hn == g:
                return ProblemAnswer(Outcome.SOLUTION, n=n)
        return ProblemAnswer.no_solution()
    except ResourceLimitError as exc:
        return ProblemAnswer.resource_limit(str(exc))


def _root_search(triple: TranslationTriple, sd: SummitData, n: int) -> ProblemAnswer:
    """Find h with h^n conjugate to g, given the triple and summit of g and n >= 2.

    Any root h has t_inf(h) = t_inf(g)/n and t_sup(h) = t_sup(g)/n, and the
    translation limits of every element have denominator at most N, so n is
    rejected at once when either quotient fails that bound.  Otherwise some
    conjugate of h lies in its super summit set, where inf = floor(t_inf(h))
    and sup = ceil(t_sup(h)); the candidates are the normal forms of that one
    (inf, sup) window.  The witness satisfies w^{-1} · h^n · w = g.  Raises
    `ResourceLimitError` after `DEFAULT_CANDIDATE_CAP` candidates.
    """
    S = sd.representative.structure
    N = S.delta_norm()
    t_inf, t_sup = triple.t_inf / n, triple.t_sup / n
    if t_inf.denominator > N or t_sup.denominator > N:
        return ProblemAnswer.no_solution()
    lo, hi = floor(t_inf), ceil(t_sup)
    for scanned, factors in enumerate(factor_sequences(S, hi - lo), start=1):
        if scanned > DEFAULT_CANDIDATE_CAP:
            raise ResourceLimitError(f"root search exceeded {DEFAULT_CANDIDATE_CAP} candidates")
        h = Element(S, lo, factors)
        w = sd.conjugator_to(power(h, n))
        if w is not None:
            return ProblemAnswer(Outcome.SOLUTION, n=n, root=h, witness=invert(w))
    return ProblemAnswer.no_solution()


def solve_root_conjugacy(g: Element, n: int) -> ProblemAnswer:
    """Find h with h^n conjugate to g, or prove there is none.

    The witness satisfies w^{-1} · h^n · w = g.
    """
    if n < 1:
        raise ValueError("root degree must be at least 1")
    if n == 1:
        return ProblemAnswer(Outcome.SOLUTION, n=1, root=g, witness=identity_element(g.structure))
    try:
        return _root_search(translation_triple(g), summit(g), n)
    except ResourceLimitError as exc:
        return ProblemAnswer.resource_limit(str(exc))


def solve_root(g: Element, n: int) -> ProblemAnswer:
    """Find h with h^n = g exactly: conjugate the root search answer back."""
    answer = solve_root_conjugacy(g, n)
    if not answer.is_solution:
        return answer
    w = answer.witness
    exact = multiply(multiply(invert(w), answer.root), w)
    return ProblemAnswer(Outcome.SOLUTION, n=n, root=exact)


def solve_proper_power_conjugacy(g: Element) -> ProblemAnswer:
    """Find (h, n >= 2) with h^n conjugate to g.

    Any solution has n = t_D(g)/t_D(h) <= N·t_D(g), and n <= N^2·t_len(g)
    when t_len(g) > 0, since t_len(h) is then a positive difference of two
    limits with denominators <= N.  So the search reduces to finitely many
    root problems, tried in increasing n on one triple and one summit of g;
    every degree beyond the t_len bound fails `_root_search`'s denominator
    test anyway.
    """
    if g.is_identity:
        # Torsion-freeness leaves only the trivial h = 1, which is excluded.
        return ProblemAnswer.no_solution()
    N = g.structure.delta_norm()
    try:
        triple = translation_triple(g)
        sd = summit(g)
        bound = N * triple.t_D
        if triple.t_len > 0:
            bound = min(bound, N * N * triple.t_len)
        for n in range(2, floor(bound) + 1):
            answer = _root_search(triple, sd, n)
            if answer.is_solution:
                return answer
        return ProblemAnswer.no_solution()
    except ResourceLimitError as exc:
        return ProblemAnswer.resource_limit(str(exc))


def solve_generalized_power(g: Element, h: Element, up_to_conjugacy: bool = False) -> ProblemAnswer:
    """Find nonzero (n, m) with g^n equal (or conjugate) to h^m.

    Requires a structure-level unique-root certificate: a positive r such
    that every r-th power lies in a finite-index subgroup with unique roots.
    With p/q = t_D(h)/t_D(g) reduced, a solution exists if and only if
    g^{pr} matches h^{qr} or h^{-qr}, so the check is a single comparison.
    """
    if g.structure is not h.structure:
        raise StructureMismatchError("generalized power query across structures")
    r = g.structure.unique_root_exponent
    if r is None:
        raise UnsupportedStructureError(
            f"{g.structure.descriptor()} declares no unique-root exponent"
        )
    if g.is_identity or h.is_identity:
        return ProblemAnswer.no_solution()
    try:
        ratio = translation_number(h) / translation_number(g)
        p, q = ratio.numerator, ratio.denominator
        gp = power(g, p * r)
        sd_gp = summit(gp) if up_to_conjugacy else None
        for sign in (1, -1):
            hq = power(h, sign * q * r)
            if up_to_conjugacy:
                witness = sd_gp.conjugator_to(hq)
                if witness is not None:
                    return ProblemAnswer(Outcome.SOLUTION, n=p * r, m=sign * q * r, witness=witness)
            elif gp == hq:
                return ProblemAnswer(Outcome.SOLUTION, n=p * r, m=sign * q * r)
        return ProblemAnswer.no_solution()
    except ResourceLimitError as exc:
        return ProblemAnswer.resource_limit(str(exc))
