"""Conjugacy invariants computed from atom words alone.

They certify negative benchmark instances without trusting the solvers:
``degree`` is the homomorphism to Z sending each atom to a positive weight
(1 for braid atoms; x -> M and y -> N in <x, y | x^N = y^M>, so both sides of
the relation have degree N*M; componentwise sums for products), and
``cycle_type`` is the cycle type of a braid's underlying permutation.
"""

from __future__ import annotations

import functools

from garside.structures import BraidStructure, ProductStructure, TorusStructure


@functools.cache
def atom_weights(S) -> dict[str, int]:
    if isinstance(S, BraidStructure):
        return {a.name: 1 for a in S.atoms()}
    if isinstance(S, TorusStructure):
        return {"x": S.exp_y, "y": S.exp_x}
    if isinstance(S, ProductStructure):
        out = {f"L.{k}": v for k, v in atom_weights(S.left).items()}
        out.update({f"R.{k}": v for k, v in atom_weights(S.right).items()})
        return out
    raise TypeError(f"no degree map for {S!r}")


def _simple_degree(S, s) -> int:
    weights = atom_weights(S)
    return sum(weights[name] for name in S.simple_atom_names(s))


def degree(g) -> int:
    S = g.structure
    return g.inf * _simple_degree(S, S.delta()) + sum(_simple_degree(S, s) for s in g.factors)


def _perm_of_names(n: int, names) -> list[int]:
    perm = list(range(n))
    for name in names:
        i = int(name[1:])
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return perm


def cycle_type(g):
    """Sorted cycle lengths of the braid's permutation; None off braid groups."""
    S = g.structure
    if not isinstance(S, BraidStructure):
        return None
    n = S.n
    names = []
    # Delta's permutation is an involution, so only the parity of inf matters.
    if g.inf % 2:
        names.extend(S.simple_atom_names(S.delta()))
    for s in g.factors:
        names.extend(S.simple_atom_names(s))
    perm = _perm_of_names(n, names)
    seen, lengths = [False] * n, []
    for start in range(n):
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))
