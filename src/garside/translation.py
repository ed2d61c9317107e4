"""
Exact translation numbers and straightness predicates.

The limits t_inf(g) = lim inf(g^n)/n and t_sup(g) = lim sup(g^n)/n are
rational with denominator at most N = ||Delta||, and t_len = t_sup - t_inf
has denominator at most N^2.  The limits round to the summit values of g
itself: inf_s(g) = floor(t_inf(g)) and sup_s(g) = ceil(t_sup(g)).
`TranslationTriple.t_D` and the one-window root search in `problems` rest
on this, and so does the triple.  The limits are conjugacy invariants and
t_inf(x^m) = m·t_inf(x), so for x conjugate to g

    inf_s(x^m)/m = floor(m·t_inf(g))/m <= t_inf(g),

with equality exactly when the denominator q <= N of t_inf(g) divides m.
So t_inf(g) is the largest of inf_s(x^m)/m over m = 1..N, and likewise
t_sup(g) the least of sup_s(x^m)/m: the summits of the first N powers
pin both limits down, and the computation is finite.

When the summit representative x = Delta^p · x_1 ... x_r of a power is
rigid, that is when the wrap pair (x_r, tau^{-p}(x_1)) is left-weighted,
no further power is needed (Birman, Gebhardt and González-Meneses,
"Conjugacy in Garside groups I: cyclings, powers and rigidity", Groups
Geom. Dyn. 1, 2007).  Moving the Deltas of x^m to the front writes it as
Delta^{mp} followed by the m blocks tau^{(m-1)p}(x_1 ... x_r), ...,
tau^p(x_1 ... x_r), x_1 ... x_r.  Each pair inside a block is a tau-image
of a pair of x, and each junction of two blocks is a tau-image of the wrap
pair; tau is an automorphism of the lattice of simples, so it keeps pairs
left-weighted, and x^m is in normal form as written.  So inf(x^m) = mp and
sup(x^m) = m(p + r) for every m, and t_inf = p, t_sup = p + r exactly; a
representative with no factors is rigid.  `_summit_triple` walks
m = 1, 2, ..., N from the summit representative x of g, forming x^m with
one multiply per step: it stops at the first m whose summit
representative is rigid and reads the limits off it, divided by m, and
otherwise keeps the best bounds.  At m = 1 that representative is x
itself.  The solvers in `problems`, which hold the summit of g already,
call it directly.

On a direct product G_L × G_R the triple is read off the components,
which `ProductStructure.split` gives with no slides.  Delta^k =
(Delta_L^k, Delta_R^k) divides a pair on the left exactly when it divides
both components, so inf(g^m) = min(inf(g_L^m), inf(g_R^m)) and
sup(g^m) = max(sup(g_L^m), sup(g_R^m)) for every m.  Dividing by m and
letting m grow, t_inf(g) = min(t_inf(g_L), t_inf(g_R)) and
t_sup(g) = max(t_sup(g_L), t_sup(g_R)).  Each component is handled as a
group of its own, nested products recursively: the summits of at most
its own N_c <= N powers, never a summit or a power of the product.

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

from . import core
from .conjugacy import SummitData, summit
from .core import Element, ResourceLimitError, multiply, power
from .structures import ProductStructure


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


def _rigid(x: Element) -> bool:
    """Whether x = Delta^p · x_1 ... x_r is rigid: r = 0, or its wrap pair
    (x_r, tau^{-p}(x_1)) is left-weighted, that is its slide leaves it as is."""
    if not x.factors:
        return True
    S = x.structure
    a, b = x.factors[-1], S.twist(-x.inf)[x.factors[0]]
    pair = a.slides.get(b)
    if pair is None:
        pair = a.slides[b] = S.slide(a, b)
    return pair[0] is a


def _summit_triple(sd: SummitData) -> TranslationTriple:
    """Exact (t_inf, t_sup, t_len) for the class of sd = summit(g): read off
    the components of a product representative, else off the first rigid
    summit representative of x^m, m = 1..N, for the representative x, else
    as the largest inf_s(x^m)/m and the least sup_s(x^m)/m."""
    x = sd.representative
    S = x.structure
    if isinstance(S, ProductStructure):
        return _triple(x)
    t_inf, t_sup = Fraction(x.inf), Fraction(x.sup)
    y = r = x
    for m in range(1, S.delta_norm() + 1):
        if m > 1:
            y = multiply(y, x)
            if len(y.factors) > core.MAX_POWER_FACTORS:
                raise ResourceLimitError(f"power has more than {core.MAX_POWER_FACTORS} factors")
            r = summit(y).representative
        if _rigid(r):
            return TranslationTriple(Fraction(r.inf, m), Fraction(r.sup, m))
        t_inf, t_sup = max(t_inf, Fraction(r.inf, m)), min(t_sup, Fraction(r.sup, m))
    return TranslationTriple(t_inf, t_sup)


def _triple(g: Element) -> TranslationTriple:
    """The triple of g: the min and max of its components' limits on a
    product, else from the summit of g."""
    S = g.structure
    if isinstance(S, ProductStructure):
        left, right = map(_triple, S.split(g))
        return TranslationTriple(min(left.t_inf, right.t_inf), max(left.t_sup, right.t_sup))
    return _summit_triple(summit(g))


def translation_triple(g: Element) -> TranslationTriple:
    """Exact (t_inf, t_sup, t_len) for g, from one summit of g (of each
    component on a product) and, when its representative x is not rigid,
    the summits of x^2, ..., x^m up to the first rigid one or m = N.
    Nested products recurse through `_triple`, so each query is one
    `translation_triple` call."""
    return _triple(g)


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
