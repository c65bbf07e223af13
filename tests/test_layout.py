"""Arena layout: every tree is stored in left-first postorder.

Builders store that postfix directly, unchecked; an arena built by hand
with child arrays in any other node order is checked and copied into it
once, by the constructor, so the caller's lists stay as they were, and both
layouts must give the same solution text.  A postfix built by hand is
checked as it is.  A malformed arena of either form raises ``ValueError``
at construction.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from pairdom import (
    Cotree,
    NoSolutionError,
    SolveContext,
    materialize,
    parse_cotree,
    random_cotree,
    random_restricted,
    recognize,
    serialize_cotree,
    solve,
)
from pairdom import cotree
from pairdom.cli import format_solution
from pairdom.cotree import JOIN, LEAF, UNION


def left_first_postorder(tree: Cotree) -> list[int]:
    """Reference traversal, recursive on purpose (small trees only)."""
    out: list[int] = []

    def visit(i: int) -> None:
        if tree.kind[i] != LEAF:
            visit(tree.a[i])
            visit(tree.b[i])
        out.append(i)

    visit(tree.root)
    return out


def assert_postfix(tree: Cotree) -> None:
    assert tree._b is None
    tree.validate()
    assert left_first_postorder(tree) == list(range(len(tree.kind)))
    assert tree.root == len(tree.kind) - 1


def relaid_arena(tree: Cotree, order: list[int]) -> tuple[list[int], list[int], list[int], int]:
    """Kinds, child arrays and root of the same tree with node ``order[j]``
    stored at index ``j``."""
    pos = {old: new for new, old in enumerate(order)}
    kind = [tree.kind[i] for i in order]
    a = [tree.a[i] if tree.kind[i] == LEAF else pos[tree.a[i]] for i in order]
    b = [-1 if tree.kind[i] == LEAF else pos[tree.b[i]] for i in order]
    return kind, a, b, pos[tree.root]


def relaid(tree: Cotree, order: list[int]) -> Cotree:
    """The tree built by hand from its arena in node order ``order``."""
    return Cotree(*relaid_arena(tree, order), tree.leaf_count)


def preorder(tree: Cotree) -> list[int]:
    out, stack = [], [tree.root]
    while stack:
        i = stack.pop()
        out.append(i)
        if tree.kind[i] != LEAF:
            stack.append(tree.b[i])
            stack.append(tree.a[i])
    return out


def level_order(tree: Cotree) -> list[int]:
    out, frontier = [], [tree.root]
    while frontier:
        out.extend(frontier)
        frontier = [c for i in frontier if tree.kind[i] != LEAF for c in (tree.a[i], tree.b[i])]
    return out


def solution_text(tree: Cotree, restricted) -> str:
    try:
        return format_solution(solve(tree, restricted))
    except NoSolutionError as err:
        return f"no solution {err.isolated}"


class TestBuildersStorePostorder:
    @given(st.integers(1, 60), st.floats(0, 1), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_random_cotree(self, n, bias, seed):
        assert_postfix(random_cotree(n, bias, seed))

    @given(st.integers(1, 60), st.floats(0, 1), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_parse_binary_text(self, n, bias, seed):
        text = serialize_cotree(random_cotree(n, bias, seed))
        tree = parse_cotree(text)
        assert_postfix(tree)
        assert serialize_cotree(tree) == text

    def test_parse_nary_text(self):
        tree = parse_cotree("(+ (* 0 1 2 3) 4 (* 5 (+ 6 7 8)) 9)")
        assert_postfix(tree)
        assert serialize_cotree(tree) == (
            "(+ (+ (+ (* (* (* 0 1) 2) 3) 4) (* 5 (+ (+ 6 7) 8))) 9)"
        )

    def test_parse_single_leaf(self):
        assert_postfix(parse_cotree("0"))

    @given(st.integers(1, 40), st.floats(0, 1), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_recognize(self, n, bias, seed):
        graph = materialize(random_cotree(n, bias, seed))
        tree = recognize(graph)
        assert_postfix(tree)
        assert materialize(tree).adj == graph.adj

    def test_hand_built_arena_is_copied_into_the_postfix(self):
        # (* 0 (+ 1 2)), stored root first.
        arena = ([JOIN, LEAF, UNION, LEAF, LEAF], [1, 0, 3, 1, 2], [2, -1, 4, -1, -1])
        tree = Cotree(*arena, 0, 3)
        assert (tree.kind, tree._a, tree.root) == (
            bytearray([LEAF, LEAF, LEAF, UNION, JOIN]), [0, 1, 2, -1, -1], 4)
        assert arena == ([JOIN, LEAF, UNION, LEAF, LEAF], [1, 0, 3, 1, 2], [2, -1, 4, -1, -1])
        assert_postfix(tree)
        assert serialize_cotree(tree) == "(* 0 (+ 1 2))"

    def test_arena_not_in_postorder_is_rejected(self):
        arenas = [
            ([JOIN, LEAF, LEAF], [-1, 0, 1], None, 2, 2),
            ([LEAF, JOIN], [0, -1], None, 1, 1),
            ([LEAF, LEAF, JOIN, JOIN], [0, 1, -1, -1], None, 3, 2),
            ([LEAF, LEAF, JOIN], [0, 1, -1], None, 0, 2),  # root not last
            ([LEAF, LEAF, JOIN], [0, 1], None, 2, 2),  # labels short of the kinds
        ]
        for arena in arenas:
            with pytest.raises(ValueError, match="postorder"):
                Cotree(*arena)

    def test_builders_skip_the_check(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a builder's postfix was checked")

        graph = materialize(parse_cotree("(* 0 (+ 1 2))"))
        monkeypatch.setattr(Cotree, "validate", refuse)
        monkeypatch.setattr(cotree, "_postfix", refuse)
        trees = [parse_cotree("(* 0 (+ 1 2))"), random_cotree(40, 0.5, 1), recognize(graph)]
        monkeypatch.undo()
        for tree in trees:
            assert_postfix(tree)


class TestOtherLayoutsSolveTheSame:
    @pytest.mark.parametrize("layout", [preorder, level_order])
    def test_random_trees(self, layout):
        rng = random.Random(5)
        for seed in range(300):
            n = rng.randint(2, 120)
            tree = random_cotree(n, rng.choice([0.3, 0.5, 0.8]), seed)
            if rng.random() < 0.5:
                tree.kind[tree.root] = JOIN
            restricted = random_restricted(n, rng.choice([0.0, 0.3, 0.7, 1.0]), seed + 1)
            arena = relaid_arena(tree, layout(tree))
            lists = tuple(x[:] if isinstance(x, list) else x for x in arena)
            other = Cotree(*arena, tree.leaf_count)
            assert arena == lists
            assert_postfix(other)
            assert other.kind == tree.kind
            assert other.leaf_labels() == tree.leaf_labels()
            assert serialize_cotree(other) == serialize_cotree(tree)
            assert materialize(other).adj == materialize(tree).adj
            assert solution_text(other, restricted) == solution_text(tree, restricted)

    def test_level_order_perfect_join_tree(self):
        n = 256
        kind, a, b = [LEAF] * n, list(range(n)), [-1] * n
        level = list(range(n))
        while len(level) > 1:
            up = []
            for i in range(0, len(level), 2):
                up.append(len(kind))
                kind.append(JOIN)
                a.append(level[i])
                b.append(level[i + 1])
            level = up
        tree = Cotree(kind, a, b, level[0], n)
        renumbered = relaid(tree, left_first_postorder(tree))
        renumbered.validate()
        for restricted in ([], range(n), range(0, n, 3)):
            assert solution_text(tree, restricted) == solution_text(renumbered, restricted)

    def test_union_root_no_solution_lists_match(self):
        tree = random_cotree(40, 0.3, 55)
        tree.kind[tree.root] = UNION
        restricted = random_restricted(40, 0.25, 56)
        other = relaid(tree, preorder(tree))
        assert solution_text(other, restricted) == solution_text(tree, restricted)

    def test_run_leaves_the_callers_arena_unchanged(self):
        # (* 0 (+ 1 2)), stored root first.
        kind, a, b = [JOIN, LEAF, UNION, LEAF, LEAF], [1, 0, 3, 1, 2], [2, -1, 4, -1, -1]
        arena = (kind[:], a[:], b[:])
        tree = Cotree(kind, a, b, 0, 3)
        ctx = SolveContext(3, [1])
        solution = ctx.extract_solution(ctx.run(tree))
        assert (kind, a, b) == arena
        assert format_solution(solution) == solution_text(parse_cotree("(* 0 (+ 1 2))"), [1])


def malformed_arenas():
    """Hand-built arenas (kind, a, b, root, leaf count) that are not a tree
    over their leaves: each with its defect and the error it raises."""
    # Each defect is one edit of (* 0 (+ 1 2)) stored root first.
    kind = [JOIN, LEAF, UNION, LEAF, LEAF]
    yield "self-child", "reached twice", (kind, [1, 0, 2, 1, 2], [2, -1, 4, -1, -1], 0, 3)
    yield "two-node cycle", "reached twice", (kind, [1, 0, 0, 1, 2], [2, -1, 4, -1, -1], 0, 3)
    yield "shared child", "reached twice", (kind, [1, 0, 3, 1, 2], [2, -1, 3, -1, -1], 0, 3)
    yield "child out of range", "dangling child 5", (kind, [1, 0, 3, 1, 2], [2, -1, 5, -1, -1], 0, 3)
    yield "negative child", "dangling child -1", (kind, [1, 0, -1, 1, 2], [2, -1, 4, -1, -1], 0, 3)
    yield "unreachable node", "unreachable", (
        [JOIN, LEAF, LEAF, LEAF, LEAF], [1, 0, 1, 1, 2], [2, -1, -1, -1, -1], 0, 3)
    yield "leaf with a right child", "right child", (kind, [1, 0, 3, 1, 2], [2, 3, 4, -1, -1], 0, 3)
    yield "leaf count too small", "cannot hold 2 leaves", (kind, [1, 0, 3, 1, 2], [2, -1, 4, -1, -1], 0, 2)
    yield "leaf count too large", "cannot hold 4 leaves", (kind, [1, 0, 3, 1, 2], [2, -1, 4, -1, -1], 0, 4)
    yield "root out of range", "rooted at 5", (kind, [1, 0, 3, 1, 2], [2, -1, 4, -1, -1], 5, 3)
    yield "short child array", "5/5/4 nodes", (kind, [1, 0, 3, 1, 2], [2, -1, 4, -1], 0, 3)
    yield "unknown kind", "kind 7", ([JOIN, LEAF, 7, LEAF, LEAF], [1, 0, 3, 1, 2], [2, -1, 4, -1, -1], 0, 3)
    # Kinds that no byte holds, or that are not integers, get the same error.
    for bad in (-1, 256, "x", None, 1.5):
        yield f"kind {bad!r}", re.escape(f"node 2 has kind {bad!r}"), (
            [JOIN, LEAF, bad, LEAF, LEAF], [1, 0, 3, 1, 2], [2, -1, 4, -1, -1], 0, 3)
    yield "label out of range", "label 3", (kind, [1, 0, 3, 1, 3], [2, -1, 4, -1, -1], 0, 3)
    yield "negative label", "label -1", (kind, [1, -1, 3, 1, 2], [2, -1, 4, -1, -1], 0, 3)
    yield "repeated label", "label 1", (kind, [1, 1, 3, 1, 2], [2, -1, 4, -1, -1], 0, 3)


# Arenas in postfix form (b=None) that are not a tree over their leaves.
# Unchecked, the first two gave wrong answers: with every vertex
# restricted, the pairs (0, 1) and (0, 2), vertex 0 used twice and vertex 3
# left out; and an error naming vertex -1 as isolated.
MALFORMED_POSTFIXES = {
    "repeated label": ([0, 0, 2, 0, 0, 2, 2], [0, 0, -1, 1, 2, -1, -1], None, 6, 4),
    "two subtrees left": ([0, 0, 2, 0, 0], [0, 1, -1, 2, -1], None, 4, 3),
    "unknown kind": ([0, 0, 7], [0, 1, -1], None, 2, 2),
    "internal node first": ([2, 0, 0], [-1, 0, 1], None, 2, 2),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_POSTFIXES))
def test_malformed_postfix_is_rejected_at_construction(name):
    with pytest.raises(ValueError):
        Cotree(*MALFORMED_POSTFIXES[name])


@pytest.mark.parametrize("error, arena", [case[1:] for case in malformed_arenas()],
                         ids=[case[0] for case in malformed_arenas()])
def test_malformed_arena_is_rejected_at_construction(error, arena):
    lists = tuple(x[:] if isinstance(x, list) else x for x in arena)
    with pytest.raises(ValueError, match=error):
        Cotree(*arena)
    assert arena == lists
