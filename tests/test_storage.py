"""Storage of a cotree: kinds and leaf labels, child arrays on demand.

Every builder stores ``kind``, as a ``bytearray`` of one byte per node,
and, in ``a``, the leaf labels (-1 at every internal node); the first read
of ``a`` or ``b`` derives the child indices.  A postfix built by hand with
list kinds must read the same to every consumer.
The solve, the isolated-vertex check, ``verify_on_tree``, ``materialize``,
``serialize_cotree`` and ``validate`` must never take that pass,
relabelling through ``tree.a`` must still reach the fold, and the derived
arrays must equal a recursive reference.
"""

from __future__ import annotations

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pairdom import (
    Cotree,
    NoSolutionError,
    materialize,
    parse_cotree,
    random_cotree,
    random_restricted,
    recognize,
    serialize_cotree,
    solve,
    verify_on_tree,
)
from pairdom.cli import format_solution
from pairdom.cotree import JOIN, LEAF, UNION, _unseen
from test_output_identity import caterpillar


def refuse(self):
    raise AssertionError("child arrays derived")


@pytest.fixture
def no_derive(monkeypatch):
    monkeypatch.setattr(Cotree, "_derive", refuse)


def relabelled(tree: Cotree, seed: int) -> Cotree:
    labels = list(range(tree.leaf_count))
    random.Random(seed).shuffle(labels)
    a = tree.a
    for i, k in enumerate(tree.kind):
        if k == LEAF:
            a[i] = labels[a[i]]
    return tree


def reference_arena(text: str) -> tuple[list[int], list[int], list[int], int]:
    """Kinds, child arrays and root of binary cotree text, by recursive
    descent (small trees only), nodes stored in left-first postorder."""
    tokens = iter(re.findall(r"[0-9]+|[(+*)]", text))
    kind: list[int] = []
    a: list[int] = []
    b: list[int] = []

    def node() -> int:
        tok = next(tokens)
        if tok == "(":
            op = UNION if next(tokens) == "+" else JOIN
            left, right = node(), node()
            next(tokens)  # ")"
            kind.append(op), a.append(left), b.append(right)
        else:
            kind.append(LEAF), a.append(int(tok)), b.append(-1)
        return len(kind) - 1

    root = node()
    return kind, a, b, root


def reference_text(tree: Cotree) -> str:
    """Binary text read off the child arrays, recursively."""
    def text(i: int) -> str:
        if tree.kind[i] == LEAF:
            return str(tree.a[i])
        op = "+" if tree.kind[i] == UNION else "*"
        return f"({op} {text(tree.a[i])} {text(tree.b[i])})"
    return text(tree.root)


def reference_adj(tree: Cotree) -> list[list[int]]:
    """Sorted adjacency rows from the child arrays: a join node links every
    leaf under its left child to every leaf under its right one."""
    adj: list[list[int]] = [[] for _ in range(tree.leaf_count)]

    def leaves(i: int) -> list[int]:
        if tree.kind[i] == LEAF:
            return [tree.a[i]]
        left, right = leaves(tree.a[i]), leaves(tree.b[i])
        if tree.kind[i] == JOIN:
            for u in left:
                adj[u].extend(right)
            for v in right:
                adj[v].extend(left)
        return left + right

    leaves(tree.root)
    return [sorted(row) for row in adj]


def small_trees(count: int):
    """Generated and parsed trees of up to 120 leaves, n-ary text included."""
    rng = random.Random(9)
    for seed in range(count):
        tree = random_cotree(rng.randint(1, 120), rng.choice([0.0, 0.3, 0.7, 1.0]), seed)
        yield tree
        yield parse_cotree(serialize_cotree(tree))
    yield parse_cotree("(+ (* 0 1 2 3) 4 (* 5 (+ 6 7 8)) 9)")


class TestOneForm:
    def test_builders_store_no_child_arrays(self):
        tree = random_cotree(50, 0.5, 1)
        assert tree._b is None
        assert recognize(materialize(tree))._b is None
        preorder = Cotree([JOIN, LEAF, UNION, LEAF, LEAF], [1, 0, 3, 1, 2], [2, -1, 4, -1, -1], 0, 3)
        assert preorder._b is None
        assert (preorder.kind, preorder._a) == (
            bytearray([LEAF, LEAF, LEAF, UNION, JOIN]), [0, 1, 2, -1, -1])

    def test_derive_leaves_the_postfix_as_it_was(self):
        tree = parse_cotree("(* 0 (+ 1 2))")
        kind, labels = tree.kind[:], tree.leaf_labels()
        tree.b
        assert (tree.kind, tree.leaf_labels(), tree.root) == (kind, labels, 4)
        tree.validate()
        assert serialize_cotree(tree) == "(* 0 (+ 1 2))"

    def test_materialize_and_serialize_need_no_child_arrays(self):
        for tree in small_trees(60):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(Cotree, "_derive", refuse)
                text = serialize_cotree(tree)
                adj = materialize(tree).adj
                tree.validate()
            assert tree._b is None
            assert text == reference_text(tree)
            assert adj == reference_adj(tree)


class TestKindBytes:
    def test_every_builder_stores_a_bytearray(self):
        tree = random_cotree(50, 0.5, 1)
        hand_built = Cotree([JOIN, LEAF, UNION, LEAF, LEAF], [1, 0, 3, 1, 2], [2, -1, 4, -1, -1], 0, 3)
        for built in (tree, parse_cotree(serialize_cotree(tree)),
                      recognize(materialize(tree)), hand_built):
            assert type(built.kind) is bytearray

    @given(st.integers(1, 60), st.floats(0, 1), st.integers(0, 10_000), st.booleans(),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_list_kinds_read_the_same(self, n, bias, seed, shape, join_root):
        tree = caterpillar(n, bias, seed) if shape else random_cotree(n, bias, seed)
        if join_root and n > 1:
            tree.kind[tree.root] = JOIN
        copy = Cotree(list(tree.kind), list(tree._a), None, tree.root, tree.leaf_count)
        assert type(copy.kind) is list
        restricted = random_restricted(n, random.Random(seed).random(), seed + 1)
        assert serialize_cotree(copy) == serialize_cotree(tree)
        try:
            solution = solve(tree, restricted)
        except NoSolutionError as err:
            with pytest.raises(NoSolutionError) as got:
                solve(copy, restricted)
            assert got.value.isolated == err.isolated
            pairs = [(v, v + 1) for v in range(0, n - 1, 3)]
        else:
            assert format_solution(solve(copy, restricted)) == format_solution(solution)
            pairs = [(p.u, p.v) for p in solution.pairs]
        assert verify_on_tree(copy, restricted, pairs) == verify_on_tree(tree, restricted, pairs)


class TestParsedArena:
    def test_stores_kinds_and_labels_only(self):
        tree = parse_cotree("(* (+ 2 0) 1)")
        assert tree.kind == bytearray([LEAF, LEAF, UNION, LEAF, JOIN])
        assert tree._a == [2, 0, -1, 1, -1]
        assert tree._b is None
        assert tree.leaf_labels() == [2, 0, 1]
        assert (tree.a, tree.b) == ([2, 0, 0, 1, 2], [-1, -1, 1, -1, 3])
        tree.validate()

    @pytest.mark.parametrize("bias", [0.0, 0.5, 1.0])
    def test_derived_arrays_equal_the_generators(self, bias):
        for seed in range(40):
            eager = random_cotree(random.Random(seed).randint(1, 300), bias, seed)
            tree = parse_cotree(serialize_cotree(eager))
            assert tree.leaf_labels() == eager.leaf_labels()
            assert (tree.kind, tree.a, tree.b, tree.root) == (
                eager.kind, eager.a, eager.b, eager.root)

    def test_derived_arrays_equal_a_recursive_reference(self):
        for tree in small_trees(60):
            want = reference_arena(serialize_cotree(tree))
            assert (list(tree.kind), tree.a, tree.b, tree.root) == want

    def test_arena_without_child_arrays_is_kept_as_given(self):
        kind, labels = [LEAF, LEAF, JOIN], [1, 0, -1]
        tree = Cotree(kind, labels, None, 2, 2)
        assert tree.kind is kind and tree._a is labels and tree._b is None
        tree.validate()


class TestNoDerivePass:
    def test_join_rooted_solve_and_verify(self, no_derive):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(2, 400)
            eager = random_cotree(n, rng.choice([0.2, 0.5, 0.8]), seed)
            eager.kind[eager.root] = JOIN
            restricted = random_restricted(n, rng.choice([0.0, 0.4, 1.0]), seed + 1)
            tree = parse_cotree(serialize_cotree(eager))
            solution = solve(tree, restricted)
            assert format_solution(solution) == format_solution(solve(eager, restricted))
            pairs = [(p.u, p.v) for p in solution.pairs]
            report = verify_on_tree(tree, restricted, pairs)
            assert report.valid
            assert report == verify_on_tree(eager, restricted, pairs)
            assert tree._b is None

    def test_union_root_names_the_isolated_vertices(self, no_derive):
        # A join over 0..5, then the isolated leaves 9, 6 and 8 and one more
        # join over 7 and 10.
        text = "(+ (* (+ 0 1) (* 2 (+ 3 (+ 4 5)))) 9 (+ 6 8) (* 7 10))"
        tree = parse_cotree(text)
        assert _unseen(tree, None) == [6, 8, 9]
        with pytest.raises(NoSolutionError) as err:
            solve(tree, [0, 6, 7])
        assert err.value.isolated == (6, 8, 9)
        assert str(err.value) == "no solution: the graph has isolated vertices 6 8 9"
        assert tree._b is None

    @given(st.integers(2, 60), st.floats(0, 1), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_union_root_matches_the_eager_tree(self, n, bias, seed):
        eager = random_cotree(n, bias, seed)
        eager.kind[eager.root] = UNION
        tree = parse_cotree(serialize_cotree(eager))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Cotree, "_derive", refuse)
            got = _unseen(tree, None)
        assert got == materialize(eager).isolated_vertices()


@given(st.integers(2, 60), st.floats(0, 1), st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_relabelling_through_a_reaches_the_fold(n, bias, seed, label_seed):
    eager = random_cotree(n, bias, seed)
    eager.kind[eager.root] = JOIN
    text = serialize_cotree(eager)
    restricted = random_restricted(n, random.Random(seed).random(), seed + 1)
    parsed = relabelled(parse_cotree(text), label_seed)
    want = format_solution(solve(relabelled(eager, label_seed), restricted))
    assert format_solution(solve(parsed, restricted)) == want


# One byte of kind per node: a parsed tree reads 47.3 bytes per leaf and a
# generated one 51.3 (list kinds: 62.7 and 66.7), so a builder that goes
# back to a list fails either guard.
def test_parsed_tree_holds_at_most_56_bytes_per_leaf():
    n = 1 << 16
    text = serialize_cotree(random_cotree(n, 0.5, 0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = parse_cotree(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tree.leaf_count == n
    assert held <= 56 * n, f"{held / n:.1f} bytes per leaf"


def test_generated_tree_holds_at_most_56_bytes_per_leaf():
    n = 1 << 16
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = random_cotree(n, 0.5, 0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tree.leaf_count == n
    assert held <= 56 * n, f"{held / n:.1f} bytes per leaf"
