"""Instances of the benchmark's two tree families.

Tree shapes are fixed, so runs with different seeds do the same amount of
work; the seed permutes the leaf labels and draws the restricted set.

``random``: the shape of ``random_cotree(n, join_bias=0.5, shape_seed)``,
with restricted density 0.5 drawn from ``seed + 1``.

``perfect``: a perfect binary tree of joins, so the graph is complete, with
every vertex restricted.
"""

from __future__ import annotations

import random

from pairdom import Cotree, RestrictedSet, random_cotree, random_restricted
from pairdom.cotree import JOIN, LEAF

JOIN_BIAS = 0.5
DENSITY = 0.5


def perfect_join_tree(n: int) -> Cotree:
    """Perfect binary join tree over leaves ``0..n-1`` (``n`` a power of two)."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"leaf count must be a power of two >= 2, got {n}")
    kind = [LEAF] * n
    a = list(range(n))
    b = [-1] * n
    level = list(range(n))
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level), 2):
            nxt.append(len(kind))
            kind.append(JOIN)
            a.append(level[i])
            b.append(level[i + 1])
        level = nxt
    return Cotree(kind, a, b, level[0], n)


def make_tree(family: str, n: int, shape_seed: int, seed: int) -> Cotree:
    """The family's fixed shape at ``n`` leaves, labels permuted by ``seed``."""
    if family == "random":
        tree = random_cotree(n, JOIN_BIAS, shape_seed)
    else:
        tree = perfect_join_tree(n)
    labels = list(range(n))
    random.Random(seed).shuffle(labels)
    kind, a = tree.kind, tree.a
    for i in range(len(kind)):
        if kind[i] == LEAF:
            a[i] = labels[a[i]]
    return tree


def make_restricted(family: str, n: int, seed: int) -> RestrictedSet:
    if family == "random":
        return random_restricted(n, DENSITY, seed + 1)
    return RestrictedSet(n, range(n))
