"""
Enumeration and sampling of left-weighted factor sequences.

The sequences of a given length form the paths of the "follows" graph on
proper simples (neither identity nor Delta): t may follow s exactly when the
pair (s, t) is already left-weighted, and `followers(s)` is the row of s,
cached on its first lookup.  Enumeration order is the canonical
sorted order of simples, so first hits of candidate searches are
deterministic.  Every enumeration is asked for a total degree, and cuts
every prefix whose remaining factors cannot reach it, keeping that order.
The walk keeps its position on explicit stacks, one level per factor, so a
window of any length enumerates without recursion.
"""

from __future__ import annotations

import functools
import random
from operator import le, sub
from typing import Iterator

from .core import Element, GarsideStructure, Simple


@functools.cache
def proper_simples(S: GarsideStructure) -> tuple[Simple, ...]:
    """All simples except the identity and Delta, canonically ordered."""
    identity = S.identity_simple()
    delta = S.delta()
    return tuple(s for s in S.enumerate_simples() if s != identity and s != delta)


@functools.cache
def followers(s: Simple) -> tuple[Simple, ...]:
    """The proper simples t with (s, t) left-weighted, for a proper simple s.

    The row is built on its first lookup, one meet per proper simple, so a
    search that visits a few rows of a large structure pays for no others.
    Each meet is used once, so it is taken on payloads, past the cache of
    `S.meet`, which the rows of braid:7 would grow to millions of entries.
    """
    S = s.structure
    identity = S.identity_simple().payload
    comp = S.right_complement(s).payload
    return tuple(t for t in proper_simples(S) if S._meet(comp, t.payload) == identity)


@functools.cache
def _degree_bounds(S: GarsideStructure) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The least and the greatest degree of a proper simple, per coordinate.

    Every proper simple lies above an atom and atoms are proper (braid:2,
    whose one atom is Delta, has no proper simples), so the least is the
    least atom weight; ∂ permutes the proper simples and
    deg(s) + deg(∂s) = deg(Delta), so the greatest is deg(Delta) minus it.
    """
    lows = tuple(map(min, zip(*S._atom_weights())))
    return lows, tuple(map(sub, S.degree(S.delta()), lows))


def factor_sequences(
    S: GarsideStructure, length: int, degree: tuple[int, ...]
) -> Iterator[tuple[Simple, ...]]:
    """The left-weighted sequences of `length` proper simples whose factor
    degrees sum to `degree`, in canonical order.

    A prefix is cut when the factors still to come, each between the least
    and the greatest degree of a proper simple in every coordinate, cannot
    make up the rest.  The walk keeps its position on explicit stacks, one
    level per factor chosen: the chosen factors, the degree each prefix
    leaves to make up, and an iterator over the options for the next
    factor; so a window of any length takes no recursion.
    """
    # reach[k]: the least and greatest degree sums of k more factors.
    lows, highs = _degree_bounds(S)
    reach = [(tuple(k * v for v in lows), tuple(k * v for v in highs))
             for k in range(length + 1)]
    low, high = reach[length]
    if not (all(map(le, low, degree)) and all(map(le, degree, high))):
        return
    if length == 0:
        yield ()
        return
    prefix: list[Simple] = []
    rests = [degree]
    options = [iter(proper_simples(S))]
    while options:
        depth = len(prefix)
        low, high = reach[length - depth - 1]
        for s in options[-1]:
            after = tuple(map(sub, rests[-1], S.degree(s)))
            if not (all(map(le, low, after)) and all(map(le, after, high))):
                continue
            if depth + 1 == length:
                yield (*prefix, s)
                continue
            prefix.append(s)
            rests.append(after)
            options.append(iter(followers(s)))
            break
        else:
            options.pop()
            rests.pop()
            if prefix:
                prefix.pop()


def sample_element(
    S: GarsideStructure,
    rng: random.Random,
    max_inf: int = 2,
    max_len: int = 3,
) -> Element:
    """A random normal form with |inf| <= max_inf and length <= max_len."""
    simples = proper_simples(S)
    inf = rng.randint(-max_inf, max_inf)
    length = rng.randint(0, max_len) if simples else 0
    factors: list[Simple] = []
    for _ in range(length):
        factors.append(rng.choice(followers(factors[-1]) if factors else simples))
    return Element(S, inf, tuple(factors))
