"""Isolated vertices read off the cotree, before any fold.

A vertex is isolated exactly when its leaf has no join ancestor, so
``solve`` names the isolated vertices by walking down from the root through
union nodes only.  On small trees that walk must agree with the materialized
graph on every arena layout; at 1e5 leaves ``solve`` must name the isolated
vertices without folding.
"""

from __future__ import annotations

import random

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
    solve,
)
from pairdom.cotree import JOIN, LEAF, UNION
from pairdom.solver import _isolated_labels
from test_layout import level_order, preorder, relaid

LAYOUTS = {"postorder": None, "preorder": preorder, "level-order": level_order}


class TestDifferential:
    @given(
        st.integers(1, 40),
        st.floats(0, 1),
        st.integers(0, 10_000),
        st.sampled_from([None, UNION, JOIN]),
        st.sampled_from(sorted(LAYOUTS)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_materialized_graph(self, n, bias, seed, root_op, layout):
        tree = random_cotree(n, bias, seed)
        if root_op is not None and tree.kind[tree.root] != LEAF:
            tree.kind[tree.root] = root_op
        expected = materialize(tree).isolated_vertices()
        order = LAYOUTS[layout]
        if order is not None:
            tree = relaid(tree, order(tree))
        assert _isolated_labels(tree) == expected
        restricted = random_restricted(n, random.Random(seed).random(), seed + 1)
        try:
            solve(tree, restricted)
        except NoSolutionError as err:
            assert err.isolated == tuple(expected)
            assert str(err) == "no solution: the graph has isolated vertices " + " ".join(
                map(str, expected)
            )
        else:
            assert expected == []

    def test_single_leaf(self):
        tree = parse_cotree("0")
        assert _isolated_labels(tree) == [0]
        with pytest.raises(NoSolutionError) as err:
            solve(tree, [0])
        assert err.value.isolated == (0,)

    def test_join_root_stops_at_the_root(self):
        assert _isolated_labels(parse_cotree("(* (+ 0 1) (+ 2 3))")) == []


def join_tree_with_three_leaves(size: int, isolated: tuple[int, int, int]) -> Cotree:
    """A ``size``-leaf join subtree unioned with three leaves labelled
    ``isolated``; the subtree takes the other labels, shuffled.  Stored in
    left-first postorder."""
    sub = random_cotree(size, 0.5, 3)
    sub.kind[sub.root] = JOIN
    labels = sorted(set(range(size + 3)) - set(isolated))
    random.Random(4).shuffle(labels)
    kind = list(sub.kind)
    a = [labels[x] if k == LEAF else -1 for k, x in zip(kind, sub.a)]
    for label in isolated:
        kind += (LEAF, UNION)
        a += (label, -1)
    return Cotree(kind, a, None, len(kind) - 1, size + 3)


class TestAtScale:
    def test_three_isolated_leaves_next_to_a_large_join(self, monkeypatch):
        size = 100_000
        tree = join_tree_with_three_leaves(size, (size + 2, 7, 50_000))
        tree.validate()

        def no_fold(self, tree):
            raise AssertionError("solve folded a tree with isolated vertices")

        monkeypatch.setattr(SolveContext, "run", no_fold)
        with pytest.raises(NoSolutionError) as err:
            solve(tree, random_restricted(size + 3, 0.5, 5))
        assert err.value.isolated == (7, 50_000, size + 2)
        assert str(err.value) == f"no solution: the graph has isolated vertices 7 50000 {size + 2}"


class TestSummaryCount:
    def test_extract_names_no_vertices(self):
        tree = parse_cotree("(+ (* 0 1) (+ 2 3))")
        ctx = SolveContext(4, [0])
        root = ctx.run(tree)
        assert ctx.snapshot(root).isolated_count == 2
        ctx.check_invariants(root)
        with pytest.raises(NoSolutionError) as err:
            ctx.extract_solution(root)
        assert err.value.isolated == ()
