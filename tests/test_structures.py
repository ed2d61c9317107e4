"""Concrete structures: constants, exhaustive primitive laws, product laws."""

import random
import re

import pytest

from garside import (
    BraidStructure,
    ProductStructure,
    TorusStructure,
    invert,
    multiply,
    power,
    simple_element,
    structure_from_descriptor,
)
from garside.cli import parse_word
from garside import core
from garside.core import GarsideStructure
from garside.structures import MAX_TORUS_EXPONENT, DescriptorError

from .conftest import random_word_element, simple_divisors
from .oracle import reference_atom_word, reference_product
from .test_repair_paths import STRUCTURES


def test_braid_constants():
    assert BraidStructure(3).delta_norm() == 3
    assert len(BraidStructure(3).enumerate_simples()) == 6
    assert BraidStructure(2).delta_norm() == 1
    assert len(BraidStructure(2).enumerate_simples()) == 2
    assert BraidStructure(4).delta_norm() == 6
    assert len(BraidStructure(4).enumerate_simples()) == 24


@pytest.mark.parametrize("S", [
    *STRUCTURES,
    *map(structure_from_descriptor, ("torus:3:5", "torus:4:4", "product:(braid:5,braid:5)")),
], ids=lambda S: S.descriptor())
def test_simples_sorted_by_norm_are_in_canonical_order(S):
    # Payloads of one norm come in increasing order, so the stable sort by
    # norm alone gives the order of `Simple`, by norm and then by payload.
    assert S.enumerate_simples() == tuple(sorted(map(S.make_simple, S._all_payloads())))


def test_simples_are_interned():
    # Simples hash and compare by identity, so equal simples must be one
    # object however their structure was built.
    for p in [(0, 1, 2), (1, 0, 2), (2, 1, 0)]:
        assert BraidStructure(3).make_simple(p) is BraidStructure(3).make_simple(p)
    built = ProductStructure(BraidStructure(3), TorusStructure(2, 3))
    parsed = [structure_from_descriptor("product:(braid:3,torus:2:3)") for _ in range(2)]
    for a, b, c in zip(built.enumerate_simples(), *(S.enumerate_simples() for S in parsed)):
        assert a is b is c
    word = "L.a1 R.x^-1 L.a2 R.y^2 D"
    g, h, k = (parse_word(S, word) for S in (built, *parsed))
    assert g == h == k
    assert hash(g) == hash(h) == hash(k)


NESTED = "product:(product:(braid:3,torus:2:3),braid:3)"


def test_structures_are_interned_by_value():
    # Positional and keyword constructors, descriptors with surrounding
    # whitespace and products of parsed components all give one object per
    # value, hashed by identity.
    routes = {
        "braid:3": (
            "a1 a2^-1 D a1",
            [
                BraidStructure(3),
                BraidStructure(n=3),
                structure_from_descriptor("braid:3"),
                structure_from_descriptor("  braid:3\n"),
            ],
        ),
        "torus:2:3": (
            "x y^-1 D x",
            [
                TorusStructure(2, 3),
                TorusStructure(exp_x=2, exp_y=3),
                structure_from_descriptor(" torus:2:3 "),
            ],
        ),
        NESTED: (
            "L.L.a1 L.R.y^2 R.a2^-1 D L.R.x",
            [
                structure_from_descriptor(NESTED),
                structure_from_descriptor(" product:( product:(braid:3, torus:2:3 ), braid:3 ) "),
                ProductStructure(
                    ProductStructure(BraidStructure(3), TorusStructure(2, 3)),
                    BraidStructure(3),
                ),
                ProductStructure(
                    ProductStructure(BraidStructure(3), TorusStructure(2, 3)),
                    structure_from_descriptor("braid:3"),
                ),
                ProductStructure(
                    structure_from_descriptor("product:(braid:3,torus:2:3)"),
                    BraidStructure(3),
                ),
            ],
        ),
    }
    for descriptor, (word, built) in routes.items():
        first = built[0]
        assert all(S is first for S in built)
        assert first.descriptor() == descriptor
        assert type(first).__hash__ is object.__hash__
        assert type(first).__eq__ is object.__eq__
        elements = [parse_word(S, word) for S in built]
        square = parse_word(first, f"{word} {word}")
        for g, h in zip(elements, elements[1:] + elements[:1]):
            assert g.structure is h.structure
            assert multiply(g, h) == square
            assert multiply(g, invert(h)).is_identity
    for cls in (BraidStructure, TorusStructure, ProductStructure):
        assert cls.__hash__ is object.__hash__
    assert BraidStructure(4) is not BraidStructure(3)
    assert TorusStructure(3, 2) is not TorusStructure(2, 3)


def test_braid_unique_root_exponent():
    assert BraidStructure(3).unique_root_exponent == 6
    assert BraidStructure(4).unique_root_exponent == 12
    assert BraidStructure(2).unique_root_exponent == 2


def test_braid_range_errors():
    with pytest.raises(ValueError):
        BraidStructure(1)
    with pytest.raises(ValueError):
        BraidStructure(9)
    BraidStructure(8)


def test_constructors_check_their_caps():
    # The classes check the caps themselves, before interning, so a direct
    # construction is bounded like a parsed descriptor.
    interned = len(core._STRUCTURES)
    for make, message in (
        (lambda: BraidStructure(9), "strand count must satisfy 2 <= n <= 8, got 9"),
        (lambda: BraidStructure(1), "strand count must satisfy 2 <= n <= 8, got 1"),
        (lambda: TorusStructure(1, 3), "torus exponents must lie in 2..256, got 1, 3"),
        (lambda: TorusStructure(2, 257), "torus exponents must lie in 2..256, got 2, 257"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()
    assert len(core._STRUCTURES) == interned


def test_delta_is_the_join_of_the_atoms():
    # No presentation declares Delta; the base class takes the join of the atoms.
    for n in range(2, 9):
        S = BraidStructure(n)
        assert S.delta().payload == tuple(range(n - 1, -1, -1))
        assert S.identity_simple().payload == tuple(range(n))
    for exps in ((5, 3), (3, 5), (4, 6)):
        S = TorusStructure(*exps)
        assert S.delta().payload == ("D", 0)
        assert S.identity_simple().payload == ("e", 0)
    S = structure_from_descriptor(NESTED)
    assert S.delta().payload == (S.left.delta(), S.right.delta())
    assert S.left.delta().payload == (S.left.left.delta(), S.left.right.delta())
    assert S.identity_simple().payload == (S.left.identity_simple(), S.right.identity_simple())


def test_torus_constants():
    assert TorusStructure(5, 3).delta_norm() == 5
    T22 = TorusStructure(2, 2)
    assert T22.delta_norm() == 2
    payloads = {s.payload for s in T22.enumerate_simples()}
    assert payloads == {("e", 0), ("x", 1), ("y", 1), ("D", 0)}
    assert TorusStructure(2, 3).delta_norm() == 3
    assert TorusStructure(MAX_TORUS_EXPONENT, MAX_TORUS_EXPONENT - 1).delta_norm() == MAX_TORUS_EXPONENT
    for bad in ((1, 3), (MAX_TORUS_EXPONENT + 1, 3), (3, MAX_TORUS_EXPONENT + 1)):
        with pytest.raises(ValueError):
            TorusStructure(*bad)


def test_torus_complement_formulas():
    T = TorusStructure(5, 3)
    for i in range(1, 5):
        assert T.right_complement(T.make_simple(("x", i))).payload in {("x", 5 - i), ("D", 0)}
        assert T.right_complement(T.make_simple(("x", i))) == T.left_complement(T.make_simple(("x", i)))
    for j in range(1, 3):
        expected = ("y", 3 - j) if 3 - j else ("D", 0)
        assert T.right_complement(T.make_simple(("y", j))).payload == expected


def test_torus_tau_is_identity():
    T = TorusStructure(5, 3)
    for s in T.enumerate_simples():
        assert T.tau_simple(s) == s
    assert T.tau_order() == 1
    assert T.unique_root_exponent is None


def test_product_constants():
    H = TorusStructure(2, 3)
    G = ProductStructure(H, H)
    assert G.delta_norm() == 6
    B2 = BraidStructure(2)
    assert ProductStructure(B2, B2).delta_norm() == 2
    assert G.unique_root_exponent is None
    PB = ProductStructure(BraidStructure(3), BraidStructure(2))
    assert PB.unique_root_exponent == 6


def test_product_example_power():
    H = TorusStructure(2, 3)
    G = ProductStructure(H, H)
    names = {a.name for a in G.atoms()}
    assert names == {"L.x", "L.y", "R.x", "R.y"}
    x = simple_element(G.atom_simple(0))   # L.x
    y = simple_element(G.atom_simple(3))   # R.y
    g = multiply(x, y)
    g6 = power(g, 6)
    assert g6.inf == 2
    assert g6.sup == 3


@pytest.mark.parametrize(
    "make",
    [
        lambda: BraidStructure(3),
        lambda: BraidStructure(4),
        lambda: TorusStructure(5, 3),
        lambda: TorusStructure(2, 2),
        lambda: ProductStructure(TorusStructure(2, 3), BraidStructure(2)),
    ],
    ids=["b3", "b4", "torus53", "torus22", "t23xb2"],
)
def test_primitive_laws_exhaustive(make):
    S = make()
    simples = S.enumerate_simples()
    identity, delta = S.identity_simple(), S.delta()
    assert S.right_complement(identity) == delta and S.right_complement(delta) == identity
    assert S.tau_simple(delta) == delta

    # s · (s^{-1} Delta) = Delta and tau is a bijection of the simples.
    for s in simples:
        assert S.simple_product(s, S.simple_left_divide(s, delta)) == delta
    assert sorted(S.tau_simple(s) for s in simples) == sorted(simples)

    # meet is associative, commutative, idempotent on a hashed sample.
    rng = random.Random(0)
    for _ in range(60):
        a, b, c = (rng.choice(simples) for _ in range(3))
        assert S.meet(a, b) == S.meet(b, a)
        assert S.meet(a, a) == a
        assert S.meet(S.meet(a, b), c) == S.meet(a, S.meet(b, c))


def test_meet_dominates_common_divisors_b4():
    S = BraidStructure(4)
    rng = random.Random(1)
    simples = S.enumerate_simples()
    for _ in range(80):
        a, b = rng.choice(simples), rng.choice(simples)
        m = S.meet(a, b)
        div_a, div_b = simple_divisors(S, a), simple_divisors(S, b)
        assert m in div_a and m in div_b
        assert (div_a & div_b) <= simple_divisors(S, m)


def test_torus_floor_ceil_law():
    for N, M in ((5, 3), (3, 5), (2, 2), (4, 3)):
        T = TorusStructure(N, M)
        x = simple_element(T.atom_simple(0))
        y = simple_element(T.atom_simple(1))
        for k in range(1, 4 * max(N, M) + 1):
            xk = power(x, k)
            assert xk.inf == k // N and xk.sup == -((-k) // N)
            yk = power(y, k)
            assert yk.inf == k // M and yk.sup == -((-k) // M)


def test_product_inf_sup_law():
    G = ProductStructure(TorusStructure(2, 3), BraidStructure(3))
    rng = random.Random(5)
    for _ in range(40):
        a = random_word_element(G.left, rng, max_letters=5)
        b = random_word_element(G.right, rng, max_letters=5)
        g = _pair_element(G, a, b)
        assert g.inf == min(a.inf, b.inf)
        assert g.sup == max(a.sup, b.sup)


def _pair_element(G, a, b):
    """Embed the component pair (a, b) into the product structure."""
    id_l, id_r = G.left.identity_simple(), G.right.identity_simple()
    out = multiply(
        power(simple_element(G.make_simple((G.left.delta(), id_r))), a.inf),
        power(simple_element(G.make_simple((id_l, G.right.delta()))), b.inf),
    )
    for s in a.factors:
        out = multiply(out, simple_element(G.make_simple((s, id_r))))
    for t in b.factors:
        out = multiply(out, simple_element(G.make_simple((id_l, t))))
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: BraidStructure(3),
        lambda: BraidStructure(4),
        lambda: TorusStructure(5, 3),
        lambda: ProductStructure(TorusStructure(2, 3), TorusStructure(2, 3)),
    ],
    ids=["b3", "b4", "torus53", "t23sq"],
)
def test_simple_norm_boundaries(make):
    S = make()
    N = S.delta_norm()
    for s in S.enumerate_simples():
        assert 0 <= s.atom_norm <= N
        assert (s.atom_norm == 0) == (s == S.identity_simple())
        assert (s.atom_norm == N) == (s == S.delta())


def test_descriptor_round_trip():
    for desc in ("braid:3", "torus:5:3", "product:(torus:2:3,torus:2:3)",
                 "product:(braid:4,product:(braid:2,torus:2:2))"):
        assert structure_from_descriptor(desc).descriptor() == desc


def test_descriptor_errors():
    deep = "product:(braid:2," * 3000 + "braid:2" + ")" * 3000
    for bad in ("braid:x", "torus:5", "product:braid:2", "product:(braid:2)", "wat:3", deep):
        with pytest.raises(DescriptorError):
            structure_from_descriptor(bad)
    # A descriptor integer is a run of ASCII digits, not whatever int() reads.
    too_long = "9" * 5000  # past int()'s default digit limit
    for bad in ("braid:0_3", "braid:3_0", "braid:+3", "braid: 3", "braid:\u0663", "torus:2: 3",
                f"braid:{too_long}", f"torus:3:{too_long}"):
        with pytest.raises(DescriptorError, match="bad integer"):
            structure_from_descriptor(bad)
    with pytest.raises(ValueError, match="torus exponents"):
        structure_from_descriptor(f"torus:{MAX_TORUS_EXPONENT + 1}:{MAX_TORUS_EXPONENT}")
    with pytest.raises(ValueError, match="strand count must satisfy 2 <= n <= 8, got 9"):
        structure_from_descriptor("braid:9")


def test_presentation_contract():
    # A presentation implements these and nothing the base class derives.
    assert GarsideStructure.__abstractmethods__ == {
        "_atom_payloads", "_norm", "_meet", "_right_complement", "_left_divide",
        "_reverse", "_all_payloads", "_atom_weights", "descriptor",
    }
    derived = {"_identity_payload", "_delta_payload", "_tau", "_left_complement", "_product",
               "_atom_word"}
    for cls in (BraidStructure, TorusStructure, ProductStructure):
        assert not derived & set(vars(cls))


@pytest.mark.parametrize(
    "descriptor",
    ["braid:2", "braid:3", "braid:4", "braid:5", "torus:5:3", "torus:2:2",
     # N < M: the x-first peel must still read Delta as x^4, not y^6.
     "torus:4:6",
     "product:(product:(braid:3,torus:2:3),braid:3)"],
)
def test_derived_primitives_match_family_formulas(descriptor):
    # core derives the product and the atom word from the lattice; the
    # families' own formulas, kept in the oracle, must agree on every
    # simple and every valid pair.
    S = structure_from_descriptor(descriptor)
    atoms, weights = S.atoms(), S._atom_weights()
    simples = S.enumerate_simples()
    for s in simples:
        word = reference_atom_word(S, s.payload)
        assert S.atom_word(s) == word
        assert S.simple_atom_names(s) == tuple(atoms[i].name for i in word)
        assert S.degree(s) == tuple(sum(weights[i][k] for i in word) for k in range(len(weights[0])))
    for a in simples:
        complement = S.right_complement(a)
        for c in simples:
            if S.meet(complement, c) is c:
                assert S.simple_product(a, c).payload == reference_product(S, a.payload, c.payload)
            else:
                with pytest.raises(ValueError, match="left divisor expected"):
                    S.simple_product(a, c)
