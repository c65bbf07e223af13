"""Exhaustive oracle: enumeration, lexicographic optimum, pruning audit."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pairdom import (
    NoSolutionError,
    OracleCapExceeded,
    RestrictedSet,
    build_graph,
    enumerate_dominating_matchings,
    is_dominating,
    oracle_canonical,
    oracle_paired_domination_number,
    verify_solution,
)
from conftest import complete_graph, cube_graph, path_graph, petersen_graph


def subset_reference(g, restricted):
    """Fully independent optimum: enumerate edge subsets with itertools."""
    edges = g.edges()
    best = None
    for size in range(len(edges) + 1):
        for combo in itertools.combinations(edges, size):
            used = set()
            ok = True
            for u, v in combo:
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if not ok or not is_dominating(g, used):
                continue
            matched = sum(1 for v in used if v in restricted)
            f = sum(1 for u, v in combo if u not in restricted and v not in restricted)
            key = (matched, -f)
            if best is None or key > best:
                best = key
    if best is None:
        return None
    return best[0], -best[1]


class TestEnumeration:
    def test_k2_single(self):
        g = build_graph(2, [(0, 1)])
        out = list(enumerate_dominating_matchings(g, RestrictedSet.empty(2)))
        assert [(o[0]) for o in out] == [((0, 1),)]

    def test_p3_hand_enumeration(self):
        # The empty matching does not dominate; the two single edges do;
        # both edges together share vertex 1.
        g = path_graph(3)
        out = {o[0] for o in enumerate_dominating_matchings(g, RestrictedSet.empty(3))}
        assert out == {((0, 1),), ((1, 2),)}

    def test_empty_graph_none(self):
        g = build_graph(2, [])
        assert list(enumerate_dominating_matchings(g, RestrictedSet.empty(2))) == []

    def test_includes_non_maximal_matchings(self):
        # In K4 a single edge dominates, even though larger matchings exist.
        g = complete_graph(4)
        sizes = {len(o[0]) for o in enumerate_dominating_matchings(g, RestrictedSet.empty(4))}
        assert sizes == {1, 2}

    def test_cap(self):
        g = build_graph(20, [(i, i + 1) for i in range(19)])
        with pytest.raises(OracleCapExceeded):
            enumerate_dominating_matchings(g, RestrictedSet.empty(20))


class TestCanonical:
    def test_k2_full(self):
        res = oracle_canonical(build_graph(2, [(0, 1)]), RestrictedSet(2, [0, 1]))
        assert (res.beta, res.f_min) == (2, 0)

    def test_k2_empty_restricted(self):
        res = oracle_canonical(build_graph(2, [(0, 1)]), RestrictedSet.empty(2))
        assert (res.beta, res.f_min) == (0, 1)

    def test_k3_all_restricted(self):
        res = oracle_canonical(complete_graph(3), RestrictedSet(3, [0, 1, 2]))
        assert (res.beta, res.f_min) == (2, 0)

    def test_path5_two_restricted(self):
        # 6-vertex labeling irrelevant; on the path 4-0-1-2-3 with {1, 2}
        # restricted there is a (0,2,0) optimum, e.g. (0,1) and (2,3).
        g = build_graph(5, [(4, 0), (0, 1), (1, 2), (2, 3)])
        res = oracle_canonical(g, RestrictedSet(5, [1, 2]))
        assert (res.beta, res.f_min) == (2, 0)
        # and the (1,0,1)-style solution (1,2)+(0,4) is valid but not chosen
        rep = verify_solution(g, RestrictedSet(5, [1, 2]), [(1, 2), (0, 4)])
        assert rep.valid and (rep.k, rep.s, rep.f) == (1, 0, 1)

    def test_witness_verifies_with_stats(self):
        g = petersen_graph()
        r = RestrictedSet(10, [0, 3, 7])
        res = oracle_canonical(g, r)
        rep = verify_solution(g, r, [(p.u, p.v) for p in res.witness.pairs])
        assert rep.valid
        assert rep.matched_number == res.beta and rep.f == res.f_min

    def test_no_solution_isolated(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(NoSolutionError) as err:
            oracle_canonical(g, RestrictedSet.empty(3))
        assert err.value.isolated == (2,)


class TestPairedDominationNumber:
    def test_cube(self):
        assert oracle_paired_domination_number(cube_graph()) == 4

    def test_p4(self):
        assert oracle_paired_domination_number(path_graph(4)) == 2

    def test_k2(self):
        assert oracle_paired_domination_number(build_graph(2, [(0, 1)])) == 2

    def test_always_even(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 7)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6
            ]
            g = build_graph(n, edges)
            if g.isolated_vertices():
                continue
            assert oracle_paired_domination_number(g) % 2 == 0


class TestAgainstIndependentReference:
    @given(st.integers(2, 6), st.integers(0, 2000), st.sampled_from([0.0, 0.4, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_subset_reference(self, n, seed, density):
        rng = random.Random(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = build_graph(n, edges)
        restricted = RestrictedSet(n, [v for v in range(n) if rng.random() < density])
        expected = subset_reference(g, restricted)
        if expected is None:
            with pytest.raises(NoSolutionError):
                oracle_canonical(g, restricted)
        else:
            res = oracle_canonical(g, restricted)
            assert (res.beta, res.f_min) == expected

    @given(st.integers(2, 7), st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_pruned_equals_reference_mode(self, n, seed):
        # The pruned search against a plain lexicographic fold of the
        # enumeration it prunes.
        rng = random.Random(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = build_graph(n, edges)
        restricted = RestrictedSet(n, [v for v in range(n) if rng.random() < 0.5])
        keys = [
            (matched, -f)
            for _, _, _, f, matched in enumerate_dominating_matchings(g, restricted)
        ]
        if not keys:
            with pytest.raises(NoSolutionError):
                oracle_canonical(g, restricted)
            return
        res = oracle_canonical(g, restricted)
        beta, neg_f = max(keys)
        assert (res.beta, res.f_min) == (beta, -neg_f)


def test_relabeling_invariance():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = build_graph(n, edges)
        if g.isolated_vertices():
            continue
        members = [v for v in range(n) if rng.random() < 0.5]
        base = oracle_canonical(g, RestrictedSet(n, members))
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = build_graph(n, [(perm[u], perm[v]) for u, v in edges])
        r2 = RestrictedSet(n, [perm[v] for v in members])
        out = oracle_canonical(g2, r2)
        assert (out.beta, out.f_min) == (base.beta, base.f_min)


def test_empty_restricted_reduces_to_paired_domination():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = build_graph(n, edges)
        if g.isolated_vertices():
            continue
        res = oracle_canonical(g, RestrictedSet.empty(n))
        assert res.beta == 0
        assert 2 * res.f_min == oracle_paired_domination_number(g)
