"""Verification on the cotree: ``verify_on_tree`` without materializing.

On small trees its report must equal ``verify_solution`` on the materialized
graph for every pair list, valid or not, whatever the arena layout, and the
leaves its domination walk finds unseen must be those with no marked
neighbour.  At 1e5 leaves, far beyond what materializing allows, the
solver's answers on every shape family must check out as valid with the
solver's own statistics.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pairdom import (
    Certificate,
    Cotree,
    NoSolutionError,
    RestrictedSet,
    materialize,
    caterpillar_cotree,
    parse_cotree,
    perfect_join_cotree,
    random_cotree,
    random_restricted,
    solve,
    verify_on_tree,
    verify_solution,
)
from pairdom.cotree import JOIN, LEAF, UNION, _unseen
from test_layout import level_order, preorder, relaid
from test_output_identity import _permuted

LAYOUTS = {"postorder": None, "preorder": preorder, "level-order": level_order}


def pair_lists(tree: Cotree, restricted: RestrictedSet) -> dict[str, list[tuple[int, int]]]:
    """The solver's pairs and corrupted variants of them."""
    n = tree.leaf_count
    graph = materialize(tree)
    try:
        solved = [(p.u, p.v) for p in solve(tree, restricted).pairs]
    except NoSolutionError:
        solved = []
    lists = {
        "solver": solved,
        "empty": [],
        "dropped-pair": solved[1:],
        "self-pair": solved + [(n - 1, n - 1)],
        "out-of-range": [(n, 0), (0, -1)] + solved + [(-3, n + 2)],
        "reused": solved + [(0, n - 1), (n - 1, 0)],
        "three-pairs": [(0, v % n) for v in (1, 2, 3)],
    }
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not graph.has_edge(u, v)]
    if non_edges:
        lists["non-edge"] = solved + [non_edges[len(non_edges) // 2]]
    return lists


def assert_reports_equal(tree: Cotree, restricted: RestrictedSet, pairs) -> None:
    expected = verify_solution(materialize(tree), restricted, pairs)
    assert verify_on_tree(tree, restricted, pairs) == expected, pairs


class TestDifferential:
    @given(
        st.integers(1, 12),
        st.floats(0, 1),
        st.integers(0, 10_000),
        st.sampled_from([None, UNION, JOIN]),
        st.sampled_from(sorted(LAYOUTS)),
        st.lists(st.tuples(st.integers(-2, 13), st.integers(-2, 13)), max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_verify_solution(self, n, bias, seed, root_op, layout, random_pairs):
        tree = random_cotree(n, bias, seed)
        if root_op is not None and tree.kind[tree.root] != LEAF:
            tree.kind[tree.root] = root_op
        restricted = random_restricted(n, random.Random(seed).random(), seed + 1)
        order = LAYOUTS[layout]
        if order is not None:
            tree = relaid(tree, order(tree))
        lists = pair_lists(tree, restricted)
        lists["random"] = random_pairs
        for pairs in lists.values():
            assert_reports_equal(tree, restricted, pairs)

    @pytest.mark.parametrize("pairs", [[], [(0, 0)], [(0, 1)], [(-1, 0)]])
    @pytest.mark.parametrize("members", [[], [0]])
    def test_single_leaf(self, pairs, members):
        tree = parse_cotree("0")
        assert_reports_equal(tree, RestrictedSet(1, members), pairs)

    def test_union_root_leaves_the_other_side_undominated(self):
        tree = parse_cotree("(+ (* 0 1) (* 2 3))")
        restricted = RestrictedSet(4, [0, 2])
        for pairs in ([(0, 1)], [(0, 1), (2, 3)], [(0, 2)], [(0, 1), (3, 2), (1, 3)]):
            assert_reports_equal(tree, restricted, pairs)
        assert not verify_on_tree(tree, restricted, [(0, 1)]).is_dominating
        assert verify_on_tree(tree, restricted, [(0, 1), (2, 3)]).valid

    def test_leaf_in_several_pairs_is_answered_for_each(self):
        # Vertex 0 is adjacent to 1 (join) but not to 2 or 3 (union).
        tree = parse_cotree("(+ (* 0 1) (+ 2 3))")
        pairs = [(2, 0), (0, 1), (0, 3)]
        report = verify_on_tree(tree, RestrictedSet.empty(4), pairs)
        assert report.problems == (
            "not-an-edge 0 2", "vertex-reused 0", "not-an-edge 0 3", "vertex-reused 0"
        )
        assert_reports_equal(tree, RestrictedSet.empty(4), pairs)


@given(
    st.integers(1, 30),
    st.floats(0, 1),
    st.integers(0, 10_000),
    st.sampled_from([None, UNION, JOIN]),
    st.sampled_from(sorted(LAYOUTS)),
    st.floats(0, 1),
)
@settings(max_examples=150, deadline=None)
def test_unseen_leaves_have_no_marked_neighbour(n, bias, seed, root_op, layout, density):
    tree = random_cotree(n, bias, seed)
    if root_op is not None and tree.kind[tree.root] != LEAF:
        tree.kind[tree.root] = root_op
    order = LAYOUTS[layout]
    if order is not None:
        tree = relaid(tree, order(tree))
    rng = random.Random(seed)
    mark = bytearray(rng.random() < density for _ in range(n))
    adj = materialize(tree).adj
    assert _unseen(tree, mark) == [v for v in range(n) if not any(mark[w] for w in adj[v])]


def join_rooted(tree: Cotree) -> Cotree:
    """The tree with its root made a join, so no vertex is isolated."""
    tree.kind[tree.root] = JOIN
    return tree


FULL_SIZE = 100_000
PERFECT_SIZE = 1 << 17
SHAPES = {
    "random bias=0.2": lambda: (
        join_rooted(random_cotree(FULL_SIZE, 0.2, 1)), random_restricted(FULL_SIZE, 0.5, 2)
    ),
    "random bias=0.5": lambda: (
        join_rooted(random_cotree(FULL_SIZE, 0.5, 3)), random_restricted(FULL_SIZE, 0.5, 4)
    ),
    "random bias=0.8": lambda: (
        join_rooted(random_cotree(FULL_SIZE, 0.8, 5)), random_restricted(FULL_SIZE, 0.5, 6)
    ),
    "perfect join R=empty": lambda: (
        _permuted(perfect_join_cotree(PERFECT_SIZE), 7), RestrictedSet.empty(PERFECT_SIZE)
    ),
    "perfect join R=V": lambda: (
        _permuted(perfect_join_cotree(PERFECT_SIZE), 8),
        RestrictedSet(PERFECT_SIZE, range(PERFECT_SIZE)),
    ),
    "caterpillar": lambda: (
        join_rooted(caterpillar_cotree(FULL_SIZE, 0.5, 9)), random_restricted(FULL_SIZE, 0.5, 10)
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_full_size_solutions_verify(shape):
    tree, restricted = SHAPES[shape]()
    solution = solve(tree, restricted)
    report = verify_on_tree(tree, restricted, [(p.u, p.v) for p in solution.pairs])
    assert report.valid and report.problems == ()
    assert (report.k, report.s, report.f, report.matched_number) == (
        solution.k, solution.s, solution.f, solution.matched_number
    )
    if shape == "perfect join R=V":
        assert report.certificate is Certificate.ALL_RESTRICTED_TIGHT


# tracemalloc peak of verify_on_tree on the solver's pairs for the perfect
# join of 2^16 leaves with every vertex restricted, counted from the call's
# start.  Measured 7.49 MB on CPython 3.11.7; the pair copy that the report
# core made before asking for edges measured 9.36 MB.
VERIFY_BOUND_MB = 8.0


def test_verify_on_tree_memory():
    n = 1 << 16
    tree = perfect_join_cotree(n)
    restricted = RestrictedSet(n, range(n))
    pairs = solve(tree, restricted).pairs
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = verify_on_tree(tree, restricted, pairs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert report.valid and report.matched_number == n
    assert peak / 2**20 < VERIFY_BOUND_MB, f"verify_on_tree peaked at {peak / 2**20:.2f} MB"
