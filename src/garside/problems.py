"""
Power, root, proper-power and generalized-power solvers.

Each solver is built on the exactness of translation numbers: if h^n is
conjugate to g and h != 1, then |n| = t_D(g) / t_D(h), so candidate
exponents are pinned down before any conjugacy test runs.  Root searches
enumerate left-weighted candidate sequences whose inf and sup are forced by
the homogeneity of t_inf and t_sup; the exponential worst case is accepted
and surfaced as a resource-limit outcome, never as a wrong answer.

Every positive answer carries a certificate (a conjugating witness where it
applies) that re-verifies by direct normal-form arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
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
        sd_g = summit(g) if up_to_conjugacy else None
        for n in (m, -m):
            hn = power(h, n)
            if up_to_conjugacy:
                sd_hn = summit(hn, target=sd_g)
                witness = None if sd_hn is None else sd_hn.conjugator_to(sd_g)
                if witness is not None:
                    return ProblemAnswer(Outcome.SOLUTION, n=n, witness=witness)
            elif hn == g:
                return ProblemAnswer(Outcome.SOLUTION, n=n)
        return ProblemAnswer.no_solution()
    except ResourceLimitError as exc:
        return ProblemAnswer.resource_limit(str(exc))


def _integers_in(lo: Fraction, hi: Fraction) -> list[int]:
    return list(range(ceil(lo), floor(hi) + 1))


def _root_search(triple: TranslationTriple, sd: SummitData, n: int) -> ProblemAnswer:
    """Find h with h^n conjugate to g, given the triple and summit of g and n >= 2.

    Any root has a conjugate at its summit values, and homogeneity forces
    inf into [t_inf(g)/n - 1, t_inf(g)/n] and sup into
    [t_sup(g)/n, t_sup(g)/n + 1], so candidates are the normal forms over at
    most four (inf, sup) windows.  The witness satisfies
    w^{-1} · h^n · w = g.  Raises `ResourceLimitError` after
    `DEFAULT_CANDIDATE_CAP` candidates.
    """
    S = sd.representative.structure
    N = S.delta_norm()
    if (triple.t_D / n).denominator > N * N:
        # No element of the group has that translation number.
        return ProblemAnswer.no_solution()
    inf_cands = _integers_in(triple.t_inf / n - 1, triple.t_inf / n)
    sup_cands = _integers_in(triple.t_sup / n, triple.t_sup / n + 1)
    windows = sorted(
        ((lo, hi) for lo in inf_cands for hi in sup_cands if hi >= lo),
        key=lambda w: (w[1] - w[0], -w[0]),
    )
    scanned = 0
    for lo, hi in windows:
        for factors in factor_sequences(S, hi - lo):
            scanned += 1
            if scanned > DEFAULT_CANDIDATE_CAP:
                raise ResourceLimitError(f"root search exceeded {DEFAULT_CANDIDATE_CAP} candidates")
            h = Element(S, lo, factors)
            hn = power(h, n)
            if hn.inf > sd.inf_s or hn.sup < sd.sup_s:
                continue
            sd_hn = summit(hn, target=sd)
            w = None if sd_hn is None else sd.conjugator_to(sd_hn)
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

    Any solution has n = t_D(g)/t_D(h) <= N·t_D(g), so the search reduces to
    finitely many root problems, tried in increasing n on one triple and one
    summit of g.
    """
    if g.is_identity:
        # Torsion-freeness leaves only the trivial h = 1, which is excluded.
        return ProblemAnswer.no_solution()
    N = g.structure.delta_norm()
    try:
        triple = translation_triple(g)
        sd = summit(g)
        for n in range(2, floor(N * triple.t_D) + 1):
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
                sd_hq = summit(hq, target=sd_gp)
                witness = None if sd_hq is None else sd_gp.conjugator_to(sd_hq)
                if witness is not None:
                    return ProblemAnswer(Outcome.SOLUTION, n=p * r, m=sign * q * r, witness=witness)
            elif gp == hq:
                return ProblemAnswer(Outcome.SOLUTION, n=p * r, m=sign * q * r)
        return ProblemAnswer.no_solution()
    except ResourceLimitError as exc:
        return ProblemAnswer.resource_limit(str(exc))
