"""Cotree parsing, materialization, recognition, and the generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pairdom import (
    Cotree,
    CotreeParseError,
    EdgeCapExceeded,
    P4Witness,
    is_induced_p4,
    materialize,
    parse_cotree,
    random_cotree,
    random_restricted,
    recognize,
    serialize_cotree,
)
from pairdom.cotree import JOIN, LEAF, UNION
from conftest import cube_graph, cycle_graph, path_graph, petersen_graph


class TestParse:
    def test_k2(self):
        t = parse_cotree("(* 0 1)")
        assert t.leaf_count == 2
        assert t.kind[t.root] == JOIN

    def test_nary_left_fold(self):
        t = parse_cotree("(+ 0 1 2)")
        root = t.root
        assert t.kind[root] == UNION
        left = t.a[root]
        assert t.kind[left] == UNION  # (+ (+ 0 1) 2)
        assert t.kind[t.b[root]] == LEAF and t.a[t.b[root]] == 2

    def test_duplicate_leaf(self):
        with pytest.raises(CotreeParseError, match="label 0"):
            parse_cotree("(* 0 0)")

    def test_missing_leaf_label(self):
        with pytest.raises(CotreeParseError):
            parse_cotree("(* 0 2)")

    def test_single_leaf(self):
        t = parse_cotree("0")
        assert t.leaf_count == 1 and t.kind[t.root] == LEAF

    def test_syntax_error_position(self):
        with pytest.raises(CotreeParseError) as err:
            parse_cotree("(* 0 1")
        assert err.value.position == 0

    @pytest.mark.parametrize(
        "text, position",
        [("(+ 0 (* 1 1))", 10), ("(* 0 2)", 5), ("(+ 0\n (* 5 1))", 9)],
    )
    def test_leaf_label_error_position(self, text, position):
        with pytest.raises(CotreeParseError) as err:
            parse_cotree(text)
        assert err.value.position == position

    def test_trailing_garbage(self):
        with pytest.raises(CotreeParseError, match="trailing"):
            parse_cotree("(* 0 1) 2")

    def test_unary_node_rejected(self):
        with pytest.raises(CotreeParseError, match="two subtrees"):
            parse_cotree("(+ 0)")

    def test_whitespace_insensitive(self):
        t = parse_cotree("  (*\n  (+ 0   2)\t1 )\n")
        assert t.leaf_count == 3


class TestSerialize:
    def test_k2(self):
        assert serialize_cotree(parse_cotree("(* 0 1)")) == "(* 0 1)"

    def test_binarized_output(self):
        assert serialize_cotree(parse_cotree("(+ 0 1 2)")) == "(+ (+ 0 1) 2)"

    @given(st.integers(1, 40), st.floats(0, 1), st.integers(0, 500))
    @settings(max_examples=60)
    def test_round_trip_identity(self, n, bias, seed):
        t = random_cotree(n, bias, seed)
        text = serialize_cotree(t)
        again = parse_cotree(text)
        assert serialize_cotree(again) == text
        assert (again.kind, again.a, again.b) == (t.kind, t.a, t.b) or (
            materialize(again).adj == materialize(t).adj
        )


class TestMaterialize:
    def test_k2(self):
        g = materialize(parse_cotree("(* 0 1)"))
        assert g.edges() == [(0, 1)]

    def test_p3_by_hand(self):
        # join of {0,2} with {1} puts 1 next to both: the path 0-1-2
        g = materialize(parse_cotree("(* (+ 0 2) 1)"))
        assert g.edges() == [(0, 1), (1, 2)]

    def test_c4_as_complete_bipartite(self):
        g = materialize(parse_cotree("(* (+ 0 1) (+ 2 3))"))
        assert g.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert all(len(g.adj[v]) == 2 for v in range(4))

    def test_edge_cap(self):
        t = random_cotree(40, 1.0, 0)  # K40: 780 edges
        with pytest.raises(EdgeCapExceeded):
            materialize(t, edge_cap=100)

    def test_union_only_graph_is_empty(self):
        g = materialize(random_cotree(17, 0.0, 3))
        assert g.m == 0


class TestRecognize:
    def test_p4_is_its_own_witness(self):
        out = recognize(path_graph(4))
        assert isinstance(out, P4Witness)
        assert is_induced_p4(path_graph(4), out)

    def test_c4(self):
        g = cycle_graph(4)
        out = recognize(g)
        assert isinstance(out, Cotree)
        assert materialize(out).adj == g.adj

    def test_k2(self):
        out = recognize(materialize(parse_cotree("(* 0 1)")))
        assert serialize_cotree(out) == "(* 0 1)"

    @pytest.mark.parametrize(
        "graph_builder",
        [lambda: path_graph(5), lambda: cycle_graph(5), cube_graph, petersen_graph],
        ids=["p5", "c5", "q3", "petersen"],
    )
    def test_non_cographs_yield_verified_witnesses(self, graph_builder):
        g = graph_builder()
        out = recognize(g)
        assert isinstance(out, P4Witness)
        assert is_induced_p4(g, out)

    @given(st.integers(1, 60), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_edge_identical(self, n, bias, seed):
        t = random_cotree(n, bias, seed)
        g = materialize(t)
        out = recognize(g)
        assert isinstance(out, Cotree)
        assert materialize(out).adj == g.adj

    def test_disconnected_cograph(self):
        t = parse_cotree("(+ (* 0 1) (* 2 3))")
        g = materialize(t)
        out = recognize(g)
        assert isinstance(out, Cotree)
        assert materialize(out).adj == g.adj


class TestGenerators:
    def test_single_leaf(self):
        t = random_cotree(1, 0.7, 9)
        assert t.leaf_count == 1 and t.kind[t.root] == LEAF

    def test_all_join_is_complete(self):
        g = materialize(random_cotree(8, 1.0, 4))
        assert g.m == 8 * 7 // 2

    def test_all_union_is_empty(self):
        g = materialize(random_cotree(8, 0.0, 4))
        assert g.m == 0

    def test_tree_determinism(self):
        a = random_cotree(50, 0.5, 123)
        b = random_cotree(50, 0.5, 123)
        assert (a.kind, a.a, a.b) == (b.kind, b.a, b.b)
        c = random_cotree(50, 0.5, 124)
        assert (a.kind, a.a, a.b) != (c.kind, c.a, c.b)

    def test_structure_valid(self):
        for seed in range(20):
            random_cotree(30, 0.5, seed).validate()

    def test_restricted_extremes(self):
        assert random_restricted(10, 0.0, 5).members() == []
        assert random_restricted(10, 1.0, 5).members() == list(range(10))

    def test_restricted_determinism(self):
        a = random_restricted(40, 0.5, 7).members()
        assert a == random_restricted(40, 0.5, 7).members()

    def test_bad_args(self):
        with pytest.raises(ValueError):
            random_cotree(0, 0.5, 1)
        with pytest.raises(ValueError):
            random_cotree(3, 1.5, 1)
        with pytest.raises(ValueError):
            random_restricted(3, -0.1, 1)


@given(st.integers(2, 30), st.sampled_from([0.3, 0.6, 0.9]), st.integers(0, 5000))
@settings(max_examples=60, deadline=None)
def test_materializations_are_p4_free(n, bias, seed):
    g = materialize(random_cotree(n, bias, seed))
    assert isinstance(recognize(g), Cotree)
