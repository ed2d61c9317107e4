"""
Concrete Garside structures: braid groups, torus-relation groups and
direct products.

Braid groups B_n use the classical structure: simples are permutations of
{0..n-1} (one-line tuples), Delta is the order reversal, the norm is the
inversion count, and the meet is computed by the greedy common-left-divisor
climb on inversion sets.  Permutations compose left to right: (p·q)[i] =
q[p[i]], so a positive braid word multiplies its permutations in reading
order and s <=_L t holds exactly when Inv(s) ⊆ Inv(t).

Torus-relation groups <x, y | x^N = y^M> have the simples
{1, x^i (0<i<N), y^j (0<j<M), Delta} with Delta = x^N = y^M central, so tau
is the identity; mixed-letter proper simples meet in the identity.

A direct product of two structures is again a Garside structure with all
primitives componentwise and Delta = (Delta_1, Delta_2), and
`ProductStructure.split` reads the two components of an element off its
normal form.

`core` derives the product of two simples and an atom word of each simple,
peeling the lowest-index atom first: a braid simple reads as its
lexicographically least reduced word, a torus Delta as x^N and a product
simple as its left word, then its right word.

The atom weights define the degree homomorphism G -> Z^k: braid atoms
weigh 1, x and y weigh M and N (so x^N = y^M has degree N·M on both
sides), and a product has one coordinate per component.  A braid simple's
payload is its permutation, which `_permutations` hands to the
permutation invariant.

No structure declares Delta: `core` derives it as the join of the atoms.
Every structure is interned by value (`core._Interned`): constructors and
parsed descriptors of one group return one object, which compares and
hashes by identity.  Each class checks its own caps (MAX_STRANDS,
MAX_TORUS_EXPONENT) in `__post_init__`, before the value is interned, so
the classes and `structure_from_descriptor` are bounded alike.  A
descriptor integer is a run of ASCII digits and nothing else.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import Element, GarsideStructure

# The n! simples of braid:n are tabulated on demand, so n is capped.
MAX_STRANDS = 8
# A torus:N:M query summits a power of exponent about max(N, M)^2, so N
# and M are capped.
MAX_TORUS_EXPONENT = 256

# ----------------------------------------------------------------------
# permutation helpers (one-line tuples over {0..n-1}, left-to-right product)
# ----------------------------------------------------------------------


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def _inversions(p: tuple[int, ...]) -> int:
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


@dataclass(frozen=True, eq=False)
class BraidStructure(GarsideStructure):
    """The classical Garside structure on the braid group with n strands,
    2 <= n <= MAX_STRANDS."""

    n: int

    tau_order_hint = 2

    def __post_init__(self):
        if self.n < 2 or self.n > MAX_STRANDS:
            raise ValueError(f"strand count must satisfy 2 <= n <= {MAX_STRANDS}, got {self.n}")

    @property
    def unique_root_exponent(self) -> int:
        # g^r has pure underlying permutation for every g exactly when r is
        # a multiple of the exponent of the symmetric group, and the pure
        # braid group is biorderable, hence has unique roots.  The generic
        # certificate for a finite-index unique-root subgroup of index d is
        # the much larger d!.
        return math.lcm(*range(1, self.n + 1))

    def descriptor(self) -> str:
        return f"braid:{self.n}"

    def _atom_payloads(self):
        payloads = []
        for i in range(self.n - 1):
            word = list(range(self.n))
            word[i], word[i + 1] = word[i + 1], word[i]
            payloads.append((f"a{i + 1}", tuple(word)))
        return tuple(payloads)

    def _atom_weights(self):
        return ((1,),) * (self.n - 1)

    def _permutations(self, payload):
        return (payload,)

    def _norm(self, payload) -> int:
        return _inversions(payload)

    def _meet(self, a, b):
        # Greedy climb: extend u by one inversion at a time while it still
        # divides both arguments.  v = u·t_i swaps the values i, i+1, adding
        # the position pair (pos[i], pos[i+1]) to Inv(u), so divisibility of
        # the extension reduces to that single pair being inverted in both.
        n = self.n
        u = list(range(n))
        pos = list(range(n))
        progress = True
        while progress:
            progress = False
            for i in range(n - 1):
                pi, pj = pos[i], pos[i + 1]
                if pi < pj and a[pi] > a[pj] and b[pi] > b[pj]:
                    u[pi], u[pj] = i + 1, i
                    pos[i], pos[i + 1] = pj, pi
                    progress = True
        return tuple(u)

    def _right_complement(self, a):
        n = self.n
        inv = _inverse(a)
        return tuple(n - 1 - inv[i] for i in range(n))

    def _left_divide(self, a, b):
        return _compose(_inverse(a), b)

    def _reverse(self, a):
        # A reversed word multiplies the inverse transpositions in the
        # opposite order, which is the inverse permutation.
        return _inverse(a)

    def _all_payloads(self):
        return itertools.permutations(range(self.n))


@dataclass(frozen=True, eq=False)
class TorusStructure(GarsideStructure):
    """The group <x, y | x^N = y^M> with Delta = x^N = y^M (central).

    Payloads are ('e', 0), ('x', i), ('y', j) and ('D', 0); the exponents lie
    in 2..MAX_TORUS_EXPONENT, in either order, and ||Delta|| = max(N, M).
    """

    exp_x: int
    exp_y: int

    tau_order_hint = 1

    def __post_init__(self):
        x, y = self.exp_x, self.exp_y
        if not (2 <= min(x, y) and max(x, y) <= MAX_TORUS_EXPONENT):
            raise ValueError(f"torus exponents must lie in 2..{MAX_TORUS_EXPONENT}, got {x}, {y}")

    def descriptor(self) -> str:
        return f"torus:{self.exp_x}:{self.exp_y}"

    def _atom_payloads(self):
        return (("x", ("x", 1)), ("y", ("y", 1)))

    def _atom_weights(self):
        # x^N = y^M has degree N·M on both sides.
        return ((self.exp_y,), (self.exp_x,))

    def _norm(self, payload) -> int:
        tag, k = payload
        if tag == "e":
            return 0
        if tag == "D":
            return max(self.exp_x, self.exp_y)
        return k

    def _meet(self, a, b):
        if a == b:
            return a
        ta, tb = a[0], b[0]
        if ta == "e" or tb == "e":
            return ("e", 0)
        if ta == "D":
            return b
        if tb == "D":
            return a
        if ta != tb:
            return ("e", 0)
        return (ta, min(a[1], b[1]))

    def _right_complement(self, a):
        tag, k = a
        if tag == "e":
            return ("D", 0)
        if tag == "D":
            return ("e", 0)
        rest = (self.exp_x if tag == "x" else self.exp_y) - k
        return (tag, rest) if rest else ("D", 0)

    def _left_divide(self, a, b):
        if a[0] == "e":
            return b
        if a == b:
            return ("e", 0)
        if b[0] == "D":
            return self._right_complement(a)
        return (a[0], b[1] - a[1])

    def _reverse(self, a):
        # Every simple is a power of one letter, or Delta = x^N.
        return a

    def _all_payloads(self):
        yield ("e", 0)
        for i in range(1, self.exp_x):
            yield ("x", i)
        for j in range(1, self.exp_y):
            yield ("y", j)
        yield ("D", 0)


@dataclass(frozen=True, eq=False)
class ProductStructure(GarsideStructure):
    """Direct product of two Garside structures; everything componentwise.

    Payloads are pairs of component simples; atoms are the embedded atoms
    (a, 1) and (1, b), displayed as L.<name> and R.<name>.
    """

    left: GarsideStructure
    right: GarsideStructure

    @property
    def tau_order_hint(self) -> int | None:
        a, b = self.left.tau_order_hint, self.right.tau_order_hint
        return math.lcm(a, b) if a is not None and b is not None else None

    @property
    def unique_root_exponent(self) -> int | None:
        a, b = self.left.unique_root_exponent, self.right.unique_root_exponent
        return math.lcm(a, b) if a is not None and b is not None else None

    def descriptor(self) -> str:
        return f"product:({self.left.descriptor()},{self.right.descriptor()})"

    def _atom_payloads(self):
        id_l = self.left.identity_simple()
        id_r = self.right.identity_simple()
        out = [
            (f"L.{atom.name}", (self.left.atom_simple(atom.index), id_r))
            for atom in self.left.atoms()
        ]
        out += [
            (f"R.{atom.name}", (id_l, self.right.atom_simple(atom.index)))
            for atom in self.right.atoms()
        ]
        return tuple(out)

    def _atom_weights(self):
        left, right = self.left._atom_weights(), self.right._atom_weights()
        zero_l, zero_r = (0,) * len(left[0]), (0,) * len(right[0])
        return tuple(w + zero_r for w in left) + tuple(zero_l + w for w in right)

    def _permutations(self, payload):
        return self.left.permutations(payload[0]) + self.right.permutations(payload[1])

    def _norm(self, payload) -> int:
        return payload[0].atom_norm + payload[1].atom_norm

    def _meet(self, a, b):
        return (self.left.meet(a[0], b[0]), self.right.meet(a[1], b[1]))

    def _right_complement(self, a):
        return (self.left.right_complement(a[0]), self.right.right_complement(a[1]))

    def _left_divide(self, a, b):
        return (self.left.simple_left_divide(a[0], b[0]), self.right.simple_left_divide(a[1], b[1]))

    def _reverse(self, a):
        return (self.left.reverse(a[0]), self.right.reverse(a[1]))

    def _all_payloads(self):
        return itertools.product(self.left.enumerate_simples(), self.right.enumerate_simples())

    def split(self, g: Element) -> tuple[Element, Element]:
        """The components (g_L, g_R) of g, read off its normal form with no slides.

        Meets are componentwise, so each column of g's factor pairs is a
        left-weighted sequence.  In it a Delta follows only a Delta, since
        ∂(a) ∧ Delta = ∂(a) is the identity only for a = Delta, and only the
        identity follows the identity, since ∂(1) ∧ b = b.  So the column is
        a run of Deltas, then proper simples, then a run of identities, and
        g_c = Delta_c^(inf + run) · (the proper simples) is in normal form.
        """
        parts = []
        for c, S in enumerate((self.left, self.right)):
            column = [s.payload[c] for s in g.factors]
            delta = S.delta()
            start, end = 0, len(column)
            while start < end and column[start] is delta:
                start += 1
            while end > start and column[end - 1].atom_norm == 0:
                end -= 1
            parts.append(Element(S, g.inf + start, tuple(column[start:end])))
        return parts[0], parts[1]


# ----------------------------------------------------------------------
# descriptor parsing
# ----------------------------------------------------------------------


class DescriptorError(ValueError):
    """Raised for malformed structure descriptor strings."""


# Deepest product nesting a descriptor may have; parsing recurses once per level.
MAX_PRODUCT_NESTING = 16


def structure_from_descriptor(text: str) -> GarsideStructure:
    """Parse ``braid:<n>``, ``torus:<N>:<M>`` or ``product:(<desc>,<desc>)``."""
    text = text.strip()
    if text.startswith("braid:"):
        return BraidStructure(_parse_int(text[len("braid:"):], text))
    if text.startswith("torus:"):
        parts = text[len("torus:"):].split(":")
        if len(parts) != 2:
            raise DescriptorError(f"expected torus:<N>:<M>, got {text!r}")
        return TorusStructure(_parse_int(parts[0], text), _parse_int(parts[1], text))
    if text.startswith("product:"):
        body = text[len("product:"):]
        if not (body.startswith("(") and body.endswith(")")):
            raise DescriptorError(f"expected product:(<desc>,<desc>), got {text!r}")
        if _nesting(body) > MAX_PRODUCT_NESTING:
            raise DescriptorError(f"products nested deeper than {MAX_PRODUCT_NESTING} levels")
        left, right = _split_product(body[1:-1], text)
        return ProductStructure(structure_from_descriptor(left), structure_from_descriptor(right))
    raise DescriptorError(f"unknown structure descriptor {text!r}")


def _parse_int(chunk: str, full: str) -> int:
    try:
        if not (chunk.isascii() and chunk.isdigit()):
            raise ValueError(chunk)
        return int(chunk)  # raises past sys.get_int_max_str_digits()
    except ValueError:
        raise DescriptorError(f"bad integer {chunk!r} in descriptor {full!r}") from None


def _nesting(body: str) -> int:
    """The deepest parenthesis nesting in body."""
    return max(itertools.accumulate((ch == "(") - (ch == ")") for ch in body), default=0)


def _split_product(body: str, full: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1:]
    raise DescriptorError(f"expected two comma-separated descriptors in {full!r}")
