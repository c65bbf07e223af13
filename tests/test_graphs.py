"""Core graph types, classification, and the from-scratch checkers."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from pairdom import (
    Certificate,
    EdgeClass,
    GraphError,
    RestrictedSet,
    build_graph,
    check_maximum_properties,
    classify_edge,
    format_graph_text,
    format_restricted_text,
    is_dominating,
    is_matching,
    parse_graph_text,
    parse_restricted_text,
    verify_solution,
)
from conftest import (
    NEGATIVE_HEADER_GRAPH_TEXTS,
    NON_NUMBER_GRAPH_TEXTS,
    complete_graph,
    path_graph,
)


class TestBuildGraph:
    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        assert g.n == 2 and g.m == 1
        assert g.adj == [[1], [0]]

    def test_p3(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.m == 2
        assert g.adj[1] == [0, 2]

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            build_graph(4, [(0, 1), (1, 1)])

    def test_duplicate_rejected_with_pair(self):
        with pytest.raises(GraphError, match=r"duplicate edge \(1, 0\)"):
            build_graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            build_graph(2, [(0, 2)])

    def test_edge_count_is_half_degree_sum(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert sum(len(row) for row in g.adj) == 2 * g.m


class TestClassifyEdge:
    # Pairs from a 6-vertex example with restricted set {2, 3}: one optimal
    # solution is (1,0,1) with full pair (2,3) and free pair (1,5); another
    # is (0,2,0) with semi pairs (1,2) and (3,4).
    R = RestrictedSet(6, [2, 3])

    def test_full(self):
        assert classify_edge((2, 3), self.R) is EdgeClass.FULL

    def test_free(self):
        assert classify_edge((1, 5), self.R) is EdgeClass.FREE

    def test_semi(self):
        assert classify_edge((1, 2), self.R) is EdgeClass.SEMI

    @given(st.integers(0, 9), st.integers(0, 9), st.sets(st.integers(0, 9)))
    def test_symmetric(self, u, v, members):
        r = RestrictedSet(10, members)
        assert classify_edge((u, v), r) is classify_edge((v, u), r)


class TestIsMatching:
    def test_single_edge(self):
        assert is_matching(path_graph(3), [(0, 1)])

    def test_shared_vertex(self):
        assert not is_matching(path_graph(3), [(0, 1), (1, 2)])

    def test_non_edge(self):
        assert not is_matching(path_graph(3), [(0, 2)])

    def test_malformed_ids_false(self):
        assert not is_matching(path_graph(3), [(0, 7)])


class TestIsDominating:
    def test_center_dominates_path(self):
        assert is_dominating(path_graph(3), {1})

    def test_endpoint_does_not(self):
        assert not is_dominating(path_graph(3), {0})

    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_whole_vertex_set_dominates(self, n, seed):
        import random

        rng = random.Random(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = build_graph(n, edges)
        assert is_dominating(g, range(n))


class TestVerifySolution:
    def test_k2_full_cover(self):
        g = build_graph(2, [(0, 1)])
        rep = verify_solution(g, RestrictedSet(2, [0, 1]), [(0, 1)])
        assert rep.valid
        assert (rep.k, rep.s, rep.f) == (1, 0, 0)
        assert rep.matched_number == 2
        assert rep.certificate is Certificate.ALL_RESTRICTED_TIGHT

    def test_triangle_odd_certificate(self):
        # All matchings of K3 are single edges; each dominates and matches
        # two of the three restricted vertices, so (1,0,0) with one vertex
        # out is the best possible.
        g = complete_graph(3)
        r = RestrictedSet(3, [0, 1, 2])
        best = max(
            (verify_solution(g, r, [e]).matched_number for e in g.edges()),
        )
        assert best == 2
        rep = verify_solution(g, r, [(0, 1)])
        assert rep.valid
        assert (rep.k, rep.s, rep.f) == (1, 0, 0)
        assert rep.certificate is Certificate.ODD_ALL_BUT_ONE

    def test_non_edge_reported(self):
        rep = verify_solution(path_graph(3), RestrictedSet.empty(3), [(0, 2)])
        assert not rep.valid
        assert "not-an-edge 0 2" in rep.problems

    def test_reused_vertex_reported(self):
        rep = verify_solution(path_graph(3), RestrictedSet.empty(3), [(0, 1), (1, 2)])
        assert not rep.valid
        assert any(p.startswith("vertex-reused") for p in rep.problems)

    def test_counting_identities(self):
        g = complete_graph(6)
        r = RestrictedSet(6, [0, 1, 2])
        pairs = [(0, 1), (2, 3), (4, 5)]
        rep = verify_solution(g, r, pairs)
        assert rep.valid
        assert len(pairs) == rep.k + rep.s + rep.f
        assert rep.matched_number == 2 * rep.k + rep.s


class TestMaximumProperties:
    def test_path_maximum_clean(self):
        # On 0-1-2 with both endpoints restricted, matching (0,1) covers one
        # restricted vertex and no exchange can do better.
        g = path_graph(3)
        out = check_maximum_properties(g, RestrictedSet(3, [0, 2]), [(0, 1)])
        assert out == []

    def test_free_pair_neighbor_violation(self):
        # With only vertex 2 restricted, (0,1) is a free pair adjacent to 2;
        # swapping to (1,2) would cover it, so the solution is not maximum.
        g = path_graph(3)
        out = check_maximum_properties(g, RestrictedSet(3, [2]), [(0, 1)])
        assert any(v.rule == "free-pair-neighbor" and v.vertex == 2 for v in out)

    def test_empty_restricted_vacuous(self):
        g = complete_graph(4)
        out = check_maximum_properties(g, RestrictedSet.empty(4), [(0, 1)])
        assert out == []

    def test_invalid_solution_rejected(self):
        with pytest.raises(ValueError):
            check_maximum_properties(path_graph(3), RestrictedSet.empty(3), [(0, 2)])

    def test_uncovered_neighborhood_violation(self):
        # 4-cycle 0-1-2-3, restricted {2}, matching (0,1): valid, but vertex
        # 2 has the unmatched neighbor 3, so adding (2,3) would be strictly
        # better.
        from conftest import cycle_graph

        g = cycle_graph(4)
        out = check_maximum_properties(g, RestrictedSet(4, [2]), [(0, 1)])
        rules = {v.rule for v in out}
        assert "uncovered-neighborhood" in rules


class TestTextFormats:
    def test_round_trip(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert parse_graph_text(format_graph_text(g)).adj == g.adj

    def test_comments_and_blank_lines(self):
        g = parse_graph_text("# a path\np 3 2\ne 0 1\n\ne 1 2\n")
        assert g.m == 2

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphError, match="declares 3"):
            parse_graph_text("p 3 3\ne 0 1\ne 1 2\n")

    def test_missing_header(self):
        with pytest.raises(GraphError, match="'p'"):
            parse_graph_text("e 0 1\n")

    def test_restricted_round_trip(self):
        r = RestrictedSet(9, [1, 5, 8])
        assert parse_restricted_text(format_restricted_text(r), 9).members() == [1, 5, 8]

    def test_empty_restricted_file(self):
        assert parse_restricted_text("", 5).members() == []

    @pytest.mark.parametrize(
        "token",
        ["1_0", "+3", "\u0663", "1-2", "-", "--1", "3x", "1" * 5000],
        ids=["underscore", "plus-sign", "arabic-indic-digit", "inner-minus", "bare-minus",
             "double-minus", "suffix", "beyond-int-digit-limit"],
    )
    def test_restricted_non_id_token(self, token):
        with pytest.raises(GraphError) as err:
            parse_restricted_text(f"0 {token}\n4", 12)
        assert str(err.value) == f"restricted set: non-integer token {token!r}"

    def test_restricted_negative_id_is_out_of_range(self):
        with pytest.raises(GraphError, match="restricted vertex -1 out of range"):
            parse_restricted_text("2 -1", 12)

    def test_restricted_leading_zeros_and_any_whitespace(self):
        assert parse_restricted_text(" 007\t3\n\n10 ", 12).members() == [3, 7, 10]

    @pytest.mark.parametrize("text, error", NON_NUMBER_GRAPH_TEXTS + NEGATIVE_HEADER_GRAPH_TEXTS)
    def test_graph_non_number_token(self, text, error):
        with pytest.raises(GraphError) as err:
            parse_graph_text(text)
        assert str(err.value) == error


def brute_force_matchings(g):
    """Independent reference: all matchings via subset enumeration."""
    edges = g.edges()
    for mask in range(1 << len(edges)):
        chosen = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        used = set()
        ok = True
        for u, v in chosen:
            if u in used or v in used:
                ok = False
                break
            used.update((u, v))
        if ok:
            yield chosen


def test_matching_checker_against_subset_enumeration():
    g = complete_graph(4)
    all_sets = [frozenset(map(frozenset, m)) for m in brute_force_matchings(g)]
    for edges in itertools.combinations(g.edges(), 2):
        expected = frozenset(map(frozenset, edges)) in all_sets
        assert is_matching(g, list(edges)) == expected
