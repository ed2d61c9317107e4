#!/usr/bin/env python3
"""Worked examples of exact translation data on the bundled structures.

Prints, for a handful of standard elements, the translation triple, the
translation number, the quotient-group value and the straightness flags;
these include the cases where the denominator bounds N and (N/2)(N/2 - 1)
are attained exactly.
"""

from garside import (
    braid_structure,
    product_structure,
    straightness,
    torus_structure,
    translation_number,
    translation_triple,
)
from garside.cli import parse_word


def show(S, word: str) -> None:
    g = parse_word(S, word)
    triple = translation_triple(g)
    flags = straightness(g)
    print(
        f"  {S.descriptor():28s} {word or '(identity)':12s}"
        f" t_inf={str(triple.t_inf):5s} t_sup={str(triple.t_sup):5s}"
        f" t_len={str(triple.t_len):5s} t_D={str(translation_number(g)):5s}"
        f" t_Dbar={str(triple.t_len):5s}"
        f" straight={flags[:2]} conj_straight={flags[2:]}"
    )


def main() -> None:
    B3 = braid_structure(3)
    T53 = torus_structure(5, 3)
    H = torus_structure(2, 3)
    PROD = product_structure(H, H)

    print("braid:3 (N = 3, central Delta power m0 =", B3.tau_order(), ")")
    for word in ("a1", "a1 a2", "a1 a1 a2", "a1^-1 a2"):
        show(B3, word)

    print("torus:5:3 (N = 5; x attains the denominator bound for t_inf)")
    for word in ("x", "y", "x^7", "x^-2 y"):
        show(T53, word)

    print("torus(2,3) x torus(2,3) (N = 6; t_len denominator = (N/2)(N/2-1) = 6)")
    for word in ("L.x R.y", "L.x^-1 R.y", "L.x L.y"):
        show(PROD, word)


if __name__ == "__main__":
    main()
