"""Cotree parsing, materialization, recognition, and the generators."""

from __future__ import annotations

import random
import re

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
    perfect_join_cotree,
    random_cotree,
    random_restricted,
    recognize,
    serialize_cotree,
)
from pairdom.cotree import _CHUNK, JOIN, LEAF, UNION
from conftest import assert_valid_postfix, cube_graph, cycle_graph, path_graph, petersen_graph


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

    @pytest.mark.parametrize(
        "text, position, char",
        [("(* 0 \u00b2)", 5, "\u00b2"), ("(* \u0660 \u0661)", 3, "\u0660")],
        ids=["superscript-two", "arabic-indic-digits"],
    )
    def test_non_ascii_digit_is_an_unexpected_character(self, text, position, char):
        with pytest.raises(CotreeParseError) as err:
            parse_cotree(text)
        assert str(err.value) == f"unexpected character {char!r} (at position {position})"
        assert err.value.position == position


# (text, message, position) for malformed input, recorded from the
# character-loop parser before the token loop replaced it; a message of
# None marks text that parses.
FROZEN_ERRORS = [
    ("(* 0 1) 2", "trailing input after complete tree", 8),
    ("(* 0 1))", "trailing input after complete tree", 7),
    ("(* 0 1)(", "trailing input after complete tree", 7),
    ("0 1", "trailing input after complete tree", 2),
    ("(* 0 1)  (* 2 3)", "trailing input after complete tree", 9),
    ("0)", "trailing input after complete tree", 1),
    ("(* 0 1) #", "trailing input after complete tree", 8),
    ("(0 1)", "expected '+' or '*' after '('", 1),
    ("(* 0 (1 2))", "expected '+' or '*' after '('", 6),
    ("(", "expected '+' or '*' after '('", 0),
    ("(* 0 1 (", "expected '+' or '*' after '('", 7),
    ("(   ", "expected '+' or '*' after '('", 0),
    ("(* 0 (  ", "expected '+' or '*' after '('", 5),
    ("(- 0 1)", "expected '+' or '*' after '('", 1),
    ("(+ 0)", "internal node needs at least two subtrees", 4),
    ("(* )", "internal node needs at least two subtrees", 3),
    ("(* (+ 0) 1)", "internal node needs at least two subtrees", 7),
    ("(+)", "internal node needs at least two subtrees", 2),
    (")", "unmatched ')'", 0),
    ("  )", "unmatched ')'", 2),
    (")0", "unmatched ')'", 0),
    ("(* 0 1", "unclosed '('", 0),
    ("(* 0 (+ 1 2)", "unclosed '('", 0),
    ("(+ (* 0 1) (* 2 3", "unclosed '('", 11),
    ("(*", "unclosed '('", 0),
    ("(+ 0 1 (* 2", "unclosed '('", 7),
    ("", "empty input", 0),
    ("   \n\t ", "empty input", 0),
    ("(* 0 0)", "leaf labels must be exactly 0..1 with no repeats; offending label 0", 5),
    ("(* 0 2)", "leaf labels must be exactly 0..1 with no repeats; offending label 2", 5),
    ("(+ 0 (* 1 1))", "leaf labels must be exactly 0..2 with no repeats; offending label 1", 10),
    ("(+ 0\n (* 5 1))", "leaf labels must be exactly 0..2 with no repeats; offending label 5", 9),
    ("1", "leaf labels must be exactly 0..0 with no repeats; offending label 1", 0),
    ("(+ 0 1 2 7)", "leaf labels must be exactly 0..3 with no repeats; offending label 7", 9),
    ("(* 00 1)", None, None),
    ("(* 0 01)", None, None),
    ("(* 0 x)", "unexpected character 'x'", 5),
    ("(* 0 1.5)", "unexpected character '.'", 6),
    ("(* 0 -1)", "unexpected character '-'", 5),
    ("a", "unexpected character 'a'", 0),
    ("(* 0 +)", "unexpected character '+'", 5),
]


@pytest.mark.parametrize("text, message, position", FROZEN_ERRORS)
def test_frozen_parse_errors(text, message, position):
    if message is None:
        assert parse_cotree(text).leaf_count == 2
        return
    with pytest.raises(CotreeParseError) as err:
        parse_cotree(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def arena(tree):
    return tree.kind, tree.a, tree.b, tree.root, tree.leaf_count


def nary_text(tree, rng):
    """Text for ``tree`` with runs of same-op left children written as one
    n-ary node, and random whitespace wherever the grammar allows it."""
    kind, a, b = tree.kind, tree.a, tree.b

    def gap():
        return rng.choice(["", " ", "  ", "\n", " \t "])

    parts = []
    stack = [tree.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif kind[item] == LEAF:
            parts.append(str(a[item]))
        else:
            operands = [b[item]]
            node = a[item]
            while kind[node] == kind[item] and rng.random() < 0.7:
                operands.append(b[node])
                node = a[node]
            operands.append(node)
            op = "+" if kind[item] == UNION else "*"
            stack.append(gap() + ")")
            for x in operands[:-1]:
                stack.extend([x, " " + gap()])
            stack.extend([operands[-1], "(" + gap() + op + " " + gap()])
    return "".join(parts)


class TestChunkedParse:
    """Texts longer than one tokenizer chunk (``_CHUNK`` characters)."""

    @pytest.mark.parametrize("straddler", [r"[0-9]{2,}", r"\(\s+\*"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_nary_text_matches_binary_form(self, straddler, seed):
        rng = random.Random(seed)
        tree = random_cotree(30_000, 0.5, seed)
        text = nary_text(tree, rng)
        # Pad the front so that a multi-character token starts one character
        # before the chunk mark and so straddles it.
        match = next(m for m in re.finditer(straddler, text) if m.start() >= 1000)
        text = " " * (_CHUNK - 1 - match.start()) + text
        assert re.match(straddler, text[_CHUNK - 1 :])
        assert len(text) > 2 * _CHUNK
        assert arena(parse_cotree(text)) == arena(parse_cotree(serialize_cotree(tree)))

    def test_round_trip_at_2_18_leaves(self):
        tree = random_cotree(1 << 18, 0.5, 0)
        assert arena(parse_cotree(serialize_cotree(tree))) == arena(tree)

    def test_errors_past_the_first_chunk(self):
        text = serialize_cotree(random_cotree(20_000, 0.5, 3))
        assert len(text) > 2 * _CHUNK
        cases = [
            (text + " 0", "trailing input after complete tree", len(text) + 1),
            (text[:-1], "unclosed '('", 0),
            (f"(+ {text} (* 20000 20001", "unclosed '('", len(text) + 4),
            (text[:-1] + "x)", "unexpected character 'x'", len(text) - 1),
        ]
        for bad, message, position in cases:
            with pytest.raises(CotreeParseError) as err:
                parse_cotree(bad)
            assert str(err.value) == f"{message} (at position {position})"


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
        # 2^14 leaves under perfect joins: about 134M edges, past the
        # default cap; the check raises before any adjacency row is built.
        with pytest.raises(EdgeCapExceeded):
            materialize(perfect_join_cotree(2**14))

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
            assert_valid_postfix(random_cotree(30, 0.5, seed))

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
