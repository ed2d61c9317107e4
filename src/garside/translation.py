"""
Exact translation numbers and straightness predicates.

The limits t_inf(g) = lim inf(g^n)/n and t_sup(g) = lim sup(g^n)/n are
rational with denominator at most N = ||Delta||, and t_len = t_sup - t_inf
has denominator at most N^2.  Both are pinned down exactly by a single
summit computation: for n >= N^2 the summit of x = g^n brackets each of
them in a closed interval of width 1/n,

    t_inf(g)  in  [ inf_s(x)/n ,  (inf_s(x) + 1)/n ],
    t_sup(g)  in  [ (sup_s(x) - 1)/n ,  sup_s(x)/n ].

The t_sup bracket is the t_inf bracket of g^{-1} negated, since
inf_s(x^{-1}) = -sup_s(x).  Two distinct rationals with denominator <= N
lie at least 1/N^2 apart, with equality only when N = 1, and n = max(N^2, 2)
makes that more than 1/n, the bracket width.  So the limit is the one such
rational within 1/(2n) of its bracket's midpoint, the best approximation of
the midpoint with denominator <= N, which `Fraction.limit_denominator(N)`
finds by continued fractions: the computation is finite.

When the summit representative x = Delta^p · x_1 ... x_r of g is rigid,
that is when the wrap pair (x_r, tau^{-p}(x_1)) is left-weighted, no power
is needed (Birman, Gebhardt and González-Meneses, "Conjugacy in Garside
groups I: cyclings, powers and rigidity", Groups Geom. Dyn. 1, 2007).
Moving the Deltas of x^m to the front writes it as Delta^{mp} followed by
the m blocks tau^{(m-1)p}(x_1 ... x_r), ..., tau^p(x_1 ... x_r),
x_1 ... x_r.  Each pair inside a block is a tau-image of a pair of x, and
each junction of two blocks is a tau-image of the wrap pair; tau is an
automorphism of the lattice of simples, so it keeps pairs left-weighted,
and x^m is in normal form as written.  So inf(x^m) = mp and
sup(x^m) = m(p + r) for every m, and t_inf = p, t_sup = p + r exactly; a
representative with no factors is rigid.  The limits are conjugacy
invariants, so otherwise the bracket is read from a summit of x^n, and x
is no longer than g.  `_summit_triple` computes the triple from the
summit data of g, and the solvers in `problems`, which hold that summit
already, call it directly.

The limits round to the summit values of g itself: inf_s(g) =
floor(t_inf(g)) and sup_s(g) = ceil(t_sup(g)).  `TranslationTriple.t_D` and
the one-window root search in `problems` rest on this.

The translation number t_D(g) with respect to the simples is the largest of
t_sup, -t_inf and t_len.  It is at least 1/N for g != 1, and the
translation number of the image of g in the central quotient
G / <Delta^{m0}>, where m0 = S.tau_order() is the least central Delta
power, equals t_len(g).

Straightness is read at the single power N: g is inf-straight when
inf(g^N) = N·inf(g), and conjugate to an inf-straight element when
inf_s(g^N) = N·inf_s(g); likewise for sup, so one g^N gives all four flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .conjugacy import SummitData, summit
from .core import Element, power


@dataclass(frozen=True)
class TranslationTriple:
    """The exact limits of inf, sup and canonical length per power."""

    t_inf: Fraction
    t_sup: Fraction

    @property
    def t_len(self) -> Fraction:
        return self.t_sup - self.t_inf

    @property
    def t_D(self) -> Fraction:
        """The translation number with respect to the simples."""
        # By the rounding identities, the summit case split (t_sup if
        # inf_s >= 0, -t_inf if sup_s <= 0, else t_len) picks the largest.
        return max(self.t_sup, -self.t_inf, self.t_len)


def _read_out(inf_s: int, sup_s: int, n: int, N: int) -> TranslationTriple:
    """The limits of g bracketed by the summit invariants (inf_s, sup_s) of
    a conjugate of g^n, n = max(N^2, 2): the best approximation of each
    bracket's midpoint with denominator <= N, checked to lie in its bracket."""
    t_inf = Fraction(2 * inf_s + 1, 2 * n).limit_denominator(N)
    t_sup = Fraction(2 * sup_s - 1, 2 * n).limit_denominator(N)
    if not (inf_s <= n * t_inf <= inf_s + 1 and sup_s - 1 <= n * t_sup <= sup_s):
        raise AssertionError("a translation limit fell outside its bracket")
    return TranslationTriple(t_inf, t_sup)


def _summit_triple(sd: SummitData) -> TranslationTriple:
    """Exact (t_inf, t_sup, t_len) for the class of sd = summit(g): read off
    a rigid representative, else from one summit of its n-th power."""
    x = sd.representative
    S = x.structure
    p, factors = x.inf, x.factors
    if not factors:
        return TranslationTriple(Fraction(p), Fraction(p))
    # The wrap pair is left-weighted exactly when its slide leaves it as is.
    a, b = factors[-1], S.twist(-p)[factors[0]]
    pair = a.slides.get(b)
    if pair is None:
        pair = a.slides[b] = S.slide(a, b)
    if pair[0] is a:
        return TranslationTriple(Fraction(p), Fraction(p + len(factors)))
    N = S.delta_norm()
    # n = 2 covers the infinite-cyclic case N = 1, where the integers are
    # exactly 1 apart and would both lie in a closed bracket of width 1.
    n = max(N * N, 2)
    sd_n = summit(power(x, n))
    return _read_out(sd_n.inf_s, sd_n.sup_s, n, N)


def translation_triple(g: Element) -> TranslationTriple:
    """Exact (t_inf, t_sup, t_len) for g, from one summit of g and, when
    its representative is not rigid, one summit of that representative's
    n-th power."""
    return _summit_triple(summit(g))


def translation_number(g: Element) -> Fraction:
    """The translation number of g with respect to the simples."""
    return translation_triple(g).t_D


def straightness(g: Element) -> tuple[bool, bool, bool, bool]:
    """(inf-straight, sup-straight, conjugate to an inf-straight element,
    conjugate to a sup-straight element), from one power g^N and one summit
    each of g and g^N."""
    N = g.structure.delta_norm()
    gN = power(g, N)
    sd, sd_N = summit(g), summit(gN)
    return (gN.inf == N * g.inf, gN.sup == N * g.sup,
            sd_N.inf_s == N * sd.inf_s, sd_N.sup_s == N * sd.sup_s)
