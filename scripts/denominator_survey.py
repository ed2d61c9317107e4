#!/usr/bin/env python3
"""Survey translation-number denominators against the uniform bounds.

Samples random normal forms in a chosen structure, computes the exact
translation data for each, and tabulates the denominators that actually
occur next to the guaranteed ceilings (N for t_inf/t_sup, N^2 for t_D),
together with the smallest positive translation number seen (bounded below
by 1/N).

    python scripts/denominator_survey.py --group braid:4 --samples 300
"""

import argparse
import random
import time
from collections import Counter
from fractions import Fraction

from garside import structure_from_descriptor, translation_triple
from garside.enumeration import sample_element


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group", default="braid:4", help="structure descriptor")
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-inf", type=int, default=2)
    parser.add_argument("--max-len", type=int, default=3)
    args = parser.parse_args()

    S = structure_from_descriptor(args.group)
    N = S.delta_norm()
    rng = random.Random(args.seed)

    limit_dens = Counter()
    td_dens = Counter()
    smallest_positive = None
    start = time.monotonic()
    for _ in range(args.samples):
        g = sample_element(S, rng, max_inf=args.max_inf, max_len=args.max_len)
        triple = translation_triple(g)
        td = triple.t_D
        limit_dens[triple.t_inf.denominator] += 1
        limit_dens[triple.t_sup.denominator] += 1
        td_dens[td.denominator] += 1
        assert triple.t_inf.denominator <= N and triple.t_sup.denominator <= N
        assert td.denominator <= N * N
        if td > 0 and (smallest_positive is None or td < smallest_positive):
            smallest_positive = td
    elapsed = time.monotonic() - start

    print(f"group {args.group}: N = {N}, {args.samples} samples in {elapsed:.1f}s")
    print(f"t_inf/t_sup denominators (bound {N}): {dict(sorted(limit_dens.items()))}")
    print(f"t_D denominators (bound {N * N}): {dict(sorted(td_dens.items()))}")
    if smallest_positive is not None:
        print(f"smallest positive t_D seen: {smallest_positive} (floor 1/{N} = {Fraction(1, N)})")


if __name__ == "__main__":
    main()
