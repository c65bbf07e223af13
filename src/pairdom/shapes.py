"""Seeded tree generators and the shape builders.

``pairdom gen`` and ``pairdom bench`` draw their instances here, and the
tests, the tools and perfbench build their tree families here; the commands
that read a tree (``solve``, ``verify``) never load this module.  Every
builder writes its postfix through :func:`~pairdom.cotree._built`,
unchecked, because it is a tree over ``0..n-1`` by construction.
"""

from __future__ import annotations

import random
from itertools import islice

from .cotree import JOIN, LEAF, UNION, Cotree, _built
from .graphs import RestrictedSet

__all__ = [
    "random_cotree",
    "perfect_join_cotree",
    "caterpillar_cotree",
    "join_cotrees",
    "random_restricted",
]


def _check_shape(n: int, join_bias: float) -> None:
    if n < 1:
        raise ValueError(f"leaf count must be at least 1, got {n}")
    if not 0.0 <= join_bias <= 1.0:
        raise ValueError(f"join_bias must be in [0, 1], got {join_bias}")


def random_cotree(n: int, join_bias: float, seed: int) -> Cotree:
    """Seeded random tree: uniform recursive splits, biased operation choice.

    Every internal node splits its leaf budget uniformly at random, is a
    join with probability ``join_bias`` (independently), and the leaves are
    labeled by a seeded permutation of ``0..n-1`` in left-to-right order.
    Pure in ``(n, join_bias, seed)``.
    """
    _check_shape(n, join_bias)
    rng = random.Random(seed)
    labels = list(range(n))
    rng.shuffle(labels)
    # Fresh int objects, allocated in leaf order as the parser's are, so a
    # walk over the leaves reads its labels from sequential memory instead
    # of jumping through the shuffled objects of range(n).
    labels = [x + 0 for x in labels]

    kind = bytearray()
    arena_a: list[int] = []

    # Depth-first, left child first: the draws happen in preorder, so the
    # sequence is reproducible and leaf labels are consumed left to right,
    # while a node is stored only once its subtree is, so the arena comes
    # out in left-first postorder.  A pending internal node waits on the
    # stack as its negated operation.
    stack = [n]
    pop, push = stack.pop, stack.append
    add_kind, add_a = kind.append, arena_a.append
    next_label = iter(labels).__next__
    randint, draw = rng.randint, rng.random
    while stack:
        size = pop()
        if size == 1:
            add_kind(LEAF)
            add_a(next_label())
        elif size > 1:
            split = randint(1, size - 1)
            push(-(JOIN if draw() < join_bias else UNION))
            push(size - split)
            push(split)
        else:
            add_kind(-size)
            add_a(-1)
    return _built(kind, arena_a, n)


def perfect_join_cotree(n: int) -> Cotree:
    """Perfect binary tree of joins over ``n`` leaves, a power of two: the
    complete graph on ``0..n-1``, labeled left to right."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"leaf count must be a power of two, got {n}")
    kind = bytearray()
    arena_a: list[int] = []
    # Leaf v - 1 completes one subtree per trailing zero bit of v, each of
    # them a join.
    for v in range(1, n + 1):
        joins = (v & -v).bit_length() - 1
        kind.append(LEAF)
        kind.extend([JOIN] * joins)
        arena_a.append(v - 1)
        arena_a.extend([-1] * joins)
    return _built(kind, arena_a, n)


def caterpillar_cotree(n: int, join_bias: float, seed: int) -> Cotree:
    """Seeded left spine: ``n - 1`` operations, each adding one leaf on the
    right and each a join with probability ``join_bias``, drawn from
    ``random.Random(seed)``.  The leaves are labeled by a permutation of
    ``0..n-1`` shuffled by ``random.Random(seed + 1)``, in left-to-right
    order.  Pure in ``(n, join_bias, seed)``.
    """
    _check_shape(n, join_bias)
    draw = random.Random(seed).random
    labels = list(range(n))
    random.Random(seed + 1).shuffle(labels)
    kind = bytearray([LEAF])
    arena_a = [labels[0]]
    for x in islice(labels, 1, None):
        kind.append(LEAF)
        kind.append(JOIN if draw() < join_bias else UNION)
        arena_a.append(x)
        arena_a.append(-1)
    return _built(kind, arena_a, n)


def join_cotrees(left: Cotree, right: Cotree) -> Cotree:
    """The join of two trees: ``left``'s postfix, then ``right``'s with its
    labels shifted by ``left.leaf_count``, then the join root.  The inputs
    are read, not changed, and their labels only at leaves: ``a`` holds
    child indices at the internal nodes of a tree whose child view was
    derived."""
    shift = left.leaf_count
    kind = bytearray(left.kind)
    kind.extend(right.kind)
    kind.append(JOIN)
    arena_a = [x if k == LEAF else -1 for k, x in zip(left.kind, left._a)]
    arena_a += [x + shift if k == LEAF else -1 for k, x in zip(right.kind, right._a)]
    arena_a.append(-1)
    return _built(kind, arena_a, shift + right.leaf_count)


def random_restricted(n: int, density: float, seed: int) -> RestrictedSet:
    """Each vertex restricted independently with probability ``density``."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = random.Random(seed)
    return RestrictedSet(n, [v for v in range(n) if rng.random() < density])
