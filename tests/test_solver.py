"""Solver: combine rules, whole-tree solves, and differential properties."""

from __future__ import annotations

import gc
import random
import re
import threading
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from pairdom import (
    NoSolutionError,
    RestrictedSet,
    SolveContext,
    SolverInternalError,
    check_maximum_properties,
    join_cotrees,
    materialize,
    oracle_canonical,
    parse_cotree,
    perfect_join_cotree,
    random_cotree,
    random_restricted,
    serialize_cotree,
    solve,
    verify_solution,
)
from pairdom.cli import format_solution
from pairdom.cotree import JOIN, LEAF
from pairdom.diagnostics import check_invariants, snapshot
from pairdom.solver import _FC, _FH, _KC, _KF, _KH, _KT, _NR, _NV, _RH, _SH
from conftest import random_instance_params


def norm_pairs(solution):
    return sorted((min(p.u, p.v), max(p.u, p.v)) for p in solution.pairs)


class TestLeafSummary:
    def test_restricted_leaf(self):
        ctx = SolveContext(1, [0])
        view = snapshot(ctx, ctx.leaf_summary(0))
        assert view.restricted_count == 1
        assert view.unmatched_restricted == (0,)
        assert view.isolated_count == 1
        assert view.vertex_count == 1

    def test_free_leaf(self):
        ctx = SolveContext(1, [])
        view = snapshot(ctx, ctx.leaf_summary(0))
        assert view.restricted_count == 0
        assert view.unmatched_free == (0,)
        assert view.isolated_count == 1

    def test_counting_identity(self):
        ctx = SolveContext(2, [1])
        for v in (0, 1):
            check_invariants(ctx, ctx.leaf_summary(v))


class TestCombineUnion:
    def test_two_pairs_concatenate(self):
        ctx = SolveContext(4, [])
        a = ctx.combine_joint(ctx.leaf_summary(0), ctx.leaf_summary(1))
        b = ctx.combine_joint(ctx.leaf_summary(2), ctx.leaf_summary(3))
        view = snapshot(ctx, ctx.combine_union(a, b))
        assert view.f == 2
        assert len(view.free_pairs) == 2

    def test_leaf_absorbed_without_touching_solution(self):
        ctx = SolveContext(3, [2])
        pair = ctx.combine_joint(ctx.leaf_summary(0), ctx.leaf_summary(1))
        view = snapshot(ctx, ctx.combine_union(pair, ctx.leaf_summary(2)))
        assert view.f == 1
        assert view.isolated_count == 1
        assert view.unmatched_restricted == (2,)

    def test_two_free_leaves(self):
        ctx = SolveContext(2, [])
        view = snapshot(ctx, ctx.combine_union(ctx.leaf_summary(0), ctx.leaf_summary(1)))
        assert view.k == view.s == view.f == 0
        assert view.unmatched_free == (0, 1)
        assert view.isolated_count == 2


class TestCombineJoint:
    def test_two_restricted_leaves_pair_up(self):
        ctx = SolveContext(2, [0, 1])
        out = ctx.combine_joint(ctx.leaf_summary(0), ctx.leaf_summary(1))
        view = snapshot(ctx, out)
        assert (view.k, view.s, view.f) == (1, 0, 0)
        assert view.full_pairs == ((0, 1),)
        assert view.unmatched_restricted == ()

    def test_c4_root_two_semis(self):
        # left: two isolated restricted vertices; right: two isolated free
        # vertices; the join is a 4-cycle whose optimum is two semi pairs.
        ctx = SolveContext(4, [0, 1])
        left = ctx.combine_union(ctx.leaf_summary(0), ctx.leaf_summary(1))
        right = ctx.combine_union(ctx.leaf_summary(2), ctx.leaf_summary(3))
        out = ctx.combine_joint(left, right)
        view = snapshot(ctx, out)
        assert (view.k, view.s, view.f) == (0, 2, 0)
        assert view.case == "cover-right"
        g = materialize(parse_cotree("(* (+ 0 1) (+ 2 3))"))
        res = oracle_canonical(g, RestrictedSet(4, [0, 1]))
        assert (res.beta, res.f_min) == (2 * view.k + view.s, view.f)

    def test_k3_all_restricted_leaves_one_out(self):
        # K2 (both restricted) joined with a restricted leaf: the odd
        # all-restricted situation; one vertex stays unmatched.
        ctx = SolveContext(3, [0, 1, 2])
        left = ctx.combine_joint(ctx.leaf_summary(0), ctx.leaf_summary(1))
        out = ctx.combine_joint(left, ctx.leaf_summary(2))
        view = snapshot(ctx, out)
        assert (view.k, view.s, view.f) == (1, 0, 0)
        assert len(view.unmatched_restricted) == 1
        assert view.case == "all-restricted-odd"

    def test_worked_example_full_pair_meets_restricted_free_pair(self):
        # Left side: full pair (0,1) plus a spare free vertex 2; right side:
        # free vertex 3 and restricted vertex 4.  The join re-pairs the
        # right restricted vertex with the left free vertex: (1,1,0), f=0.
        ctx = SolveContext(5, [0, 1, 4])
        lpair = ctx.combine_joint(ctx.leaf_summary(0), ctx.leaf_summary(1))
        left = ctx.combine_union(lpair, ctx.leaf_summary(2))
        right = ctx.combine_union(ctx.leaf_summary(3), ctx.leaf_summary(4))
        out = ctx.combine_joint(left, right)
        view = snapshot(ctx, out)
        assert (view.k, view.s, view.f) == (1, 1, 0)
        assert view.full_pairs == ((0, 1),)
        assert view.semi_pairs == ((4, 2),)
        check_invariants(ctx, out)

    def test_output_isolated_pools_empty(self):
        ctx = SolveContext(3, [0])
        left = ctx.combine_union(ctx.leaf_summary(0), ctx.leaf_summary(1))
        out = ctx.combine_joint(left, ctx.leaf_summary(2))
        view = snapshot(ctx, out)
        assert view.isolated_count == 0


class TestSolve:
    def test_k2_empty_restricted(self):
        sol = solve(parse_cotree("(* 0 1)"), [])
        assert (sol.k, sol.s, sol.f) == (0, 0, 1)
        assert sol.matched_number == 0
        assert norm_pairs(sol) == [(0, 1)]

    def test_p3(self):
        # Dominating matchings of the path 0-1-2 are (0,1) and (1,2); each
        # covers exactly one of the restricted endpoints.
        sol = solve(parse_cotree("(* (+ 0 2) 1)"), [0, 2])
        assert (sol.k, sol.s, sol.f) == (0, 1, 0)
        assert sol.matched_number == 1
        assert norm_pairs(sol) == [(0, 1)]

    def test_union_of_leaves_has_no_solution(self):
        with pytest.raises(NoSolutionError) as err:
            solve(parse_cotree("(+ 0 1)"), [])
        assert err.value.isolated == (0, 1)

    def test_single_leaf_has_no_solution(self):
        with pytest.raises(NoSolutionError):
            solve(parse_cotree("0"), [0])

    def test_k23(self):
        sol = solve(parse_cotree("(* (+ 0 1) (+ 2 (+ 3 4)))"), [0, 1])
        assert (sol.k, sol.s, sol.f) == (0, 2, 0)
        assert sol.matched_number == 2
        assert norm_pairs(sol) == [(0, 2), (1, 3)]

    def test_disconnected_without_isolated_ok(self):
        # Two separate matched components; the union root is fine as long
        # as nothing is isolated.
        sol = solve(parse_cotree("(+ (* 0 1) (* 2 3))"), [0, 2])
        assert sol.matched_number == 2
        assert (sol.k, sol.s, sol.f) == (0, 2, 0)

    def test_determinism_byte_for_byte(self):
        tree = random_cotree(64, 0.6, 5)
        restricted = random_restricted(64, 0.5, 6)
        a = solve(tree, restricted)
        b = solve(tree, restricted)
        assert a == b
        assert repr(a) == repr(b)

    def test_restricted_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve(parse_cotree("(* 0 1)"), RestrictedSet(3, [0]))


class TestDifferentialProperties:
    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, seed):
        n, bias, density = random_instance_params(seed)
        tree = random_cotree(n, bias, seed)
        restricted = random_restricted(n, density, seed + 1)
        g = materialize(tree)
        try:
            sol = solve(tree, restricted)
        except NoSolutionError:
            with pytest.raises(NoSolutionError):
                oracle_canonical(g, restricted)
            return
        res = oracle_canonical(g, restricted)
        assert (sol.matched_number, sol.f) == (res.beta, res.f_min)
        report = verify_solution(g, restricted, [(p.u, p.v) for p in sol.pairs])
        assert report.valid
        assert (report.k, report.s, report.f) == (sol.k, sol.s, sol.f)

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_connected_output_survives_maximum_property_checks(self, seed):
        n, bias, density = random_instance_params(seed)
        tree = random_cotree(n, bias, seed)
        tree.kind[tree.root] = 2  # force a join at the root: connected
        restricted = random_restricted(n, density, seed + 1)
        sol = solve(tree, restricted)
        g = materialize(tree)
        assert check_maximum_properties(g, restricted, sol) == []

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_root_invariants(self, seed):
        n, bias, density = random_instance_params(seed)
        tree = random_cotree(n, bias, seed)
        restricted = random_restricted(n, density, seed + 1)
        ctx = SolveContext(n, restricted)
        root = ctx.run(tree)
        check_invariants(ctx, root)

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_at_most_one_free_pair_when_restricted_nonempty(self, seed):
        n, bias, _ = random_instance_params(seed)
        tree = random_cotree(n, bias, seed)
        tree.kind[tree.root] = 2
        restricted = random_restricted(n, 0.5, seed + 1)
        if len(restricted) == 0:
            return
        sol = solve(tree, restricted)
        assert sol.f <= 1


class TestRareJointConstructions:
    """Directed instances pinning the constructions the random sweeps hit
    only rarely; every expectation cross-checked against the oracle."""

    def check(self, text, members, expected_ksf, expected_case):
        tree = parse_cotree(text)
        restricted = RestrictedSet(tree.leaf_count, members)
        sol = solve(tree, restricted)
        assert (sol.k, sol.s, sol.f) == expected_ksf
        assert sol.case_trace == expected_case
        graph = materialize(tree)
        report = verify_solution(graph, restricted, [(p.u, p.v) for p in sol.pairs])
        assert report.valid
        res = oracle_canonical(graph, restricted)
        assert (sol.matched_number, sol.f) == (res.beta, res.f_min)
        return sol

    def test_witness_split(self):
        # Kept side: full pair (0,1) inside a triangle 0-1-2, plus the
        # isolated free vertex 3; other side a single free vertex.  The
        # full pair splits along the triangle's restricted-free edge.
        sol = self.check("(* (+ (* (* 0 1) 2) 3) 4)", [0, 1], (0, 2, 0), "witness-split")
        assert norm_pairs(sol) == [(0, 2), (1, 4)]

    def test_free_bridge(self):
        # Vertex 2's only neighbor is 3, both free, and every neighbor of a
        # restricted vertex is restricted: a free pair is unavoidable.
        sol = self.check("(* (+ (* 0 1) 2) 3)", [0, 1], (1, 0, 1), "free-bridge")
        assert norm_pairs(sol) == [(0, 1), (2, 3)]

    def test_deficit_odd_split(self):
        # One leftover right restricted vertex, no free vertex on the kept
        # side, no restricted-free edge on the right: split a full pair.
        sol = self.check("(* (* 0 1) (+ 2 3))", [0, 1, 2], (1, 1, 0), "deficit-odd-split")
        assert norm_pairs(sol) == [(0, 3), (1, 2)]

    def test_deficit_odd_witness(self):
        # Same shape, but the right side carries a restricted-free edge
        # (2, 3); the parity-fixing semi pair is exactly that edge.
        sol = self.check("(* (* 0 1) (* 2 3))", [0, 1, 2], (1, 1, 0), "deficit-odd-witness")
        assert norm_pairs(sol) == [(0, 1), (2, 3)]

    def test_dead_pair_survives_later_spill(self):
        # witness-split kills a pair mid-chain inside the left subtree; the
        # ancestor join then spills that side, which must skip the corpse.
        self.check(
            "(* (* (+ (* (* 0 1) 2) 3) 4) (+ 5 (+ 6 7)))",
            [0, 1, 5, 6, 7],
            (2, 1, 0),
            "cover-plus",
        )

    # Balanced crosses that relink or must not.  ``relinks`` holds each
    # relink's vertex count.  A relink is checked node by node against
    # spilling both sides and crossing.

    def test_balanced_cross_over_free_bridge(self, relinks, monkeypatch):
        # The left child is free-bridge's (0,1) full plus the free pair
        # (2,3), which drops into the free pool; 2 and 3 stay unmatched.
        text = "(* (* (+ (* 0 1) 2) 3) (* 4 5))"
        sol = self.check(text, [0, 1, 4, 5], (2, 0, 0), "balanced-cross")
        assert norm_pairs(sol) == [(0, 4), (1, 5)]
        # The relink drops the free pair as the spill would.
        assert relinks == [6]
        TestRelinkFulls.compare(parse_cotree(text), [0, 1, 4, 5], monkeypatch)

    @pytest.mark.parametrize(
        "text",
        [
            # witness-split leaves a dead slot mid-way along the left full
            # chain; deficit-semi then turns both its semis into fulls.
            "(* (* (+ (* 5 6) (* (+ (* (* 0 1) 2) 3) 4)) (+ 7 8))"
            " (+ (* 9 10) (+ (* 11 12) (* 13 14))))",
            # The same side on the right, its dead slot at the chain head.
            "(* (+ (* 9 10) (+ (* 11 12) (* 13 14)))"
            " (* (+ (* (+ (* (* 0 1) 2) 3) 4) (* 5 6)) (+ 7 8)))",
        ],
        ids=["left-mid-chain", "right-head"],
    )
    def test_balanced_cross_over_dead_full_slot(self, relinks, monkeypatch, text):
        # The relink skips the dead slot and frees it with the chain; the
        # join with 15 above takes the last freed slot for its semi pair: a
        # dead slot freed but left linked in a live chain would cut it.
        text = f"(* {text} 15)"
        members = [0, 1, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
        sol = self.check(text, members, (6, 1, 0), "deficit-odd-left-free")
        assert norm_pairs(sol) == [
            (0, 13), (1, 11), (2, 15), (5, 9), (6, 10), (7, 12), (8, 14)
        ]
        assert relinks == [15]
        TestRelinkFulls.compare(parse_cotree(text), members, monkeypatch)

    @pytest.mark.parametrize("witness_first", [True, False], ids=["witness-first", "relink-first"])
    def test_balanced_cross_beside_a_witness_split(self, relinks, monkeypatch, witness_first):
        # Two subtrees under a union: a witness-split, and a balanced cross
        # of two full pairs.  The cross relinks in either order.
        split = "(* (+ (* (* 0 1) 2) 3) 4)"
        cross = "(* (* 5 6) (* 7 8))"
        text = f"(+ {split} {cross})" if witness_first else f"(+ {cross} {split})"
        sol = self.check(text, [0, 1, 5, 6, 7, 8], (2, 2, 0), "union")
        assert format_solution(sol) == (
            "beta 6\nkfs 2 2 0\npair 0 2 semi\npair 1 4 semi\n"
            "pair 5 7 full\npair 6 8 full\n"
        )
        assert relinks == [4]
        TestRelinkFulls.compare(parse_cotree(text), [0, 1, 5, 6, 7, 8], monkeypatch)

    def test_balanced_cross_over_all_restricted_odd(self, relinks):
        # Both sides are K_3, all restricted, each with one vertex pooled:
        # not every restricted vertex is in a full pair, so no relink.
        sol = self.check(
            "(* (* (* 1 5) 0) (* 2 (* 4 3)))", range(6), (3, 0, 0), "balanced-cross"
        )
        assert norm_pairs(sol) == [(0, 2), (1, 4), (3, 5)]
        assert relinks == []

    def test_claimed_restricted_entry_keeps_the_spill(self, relinks):
        # deficit-odd-witness pairs 7 with its witness partner 1 out of
        # turn, leaving a claimed entry for 7 in the restricted pool, and
        # deficit-semi makes (7, 6) full.  At the balanced cross above, every
        # restricted vertex of that side is in a full pair, yet the spill
        # pools 7 at that entry, ahead of 8 and 5: no relink.
        sol = self.check(
            "(* (* (* 0 12) 3) (* (+ (+ (* 2 10) 9) (* 4 11)) (* (* (* 8 5) (* 7 1)) 6)))",
            [0, 2, 4, 5, 6, 7, 8, 10, 11, 12],
            (5, 0, 0),
            "deficit-full",
        )
        assert norm_pairs(sol) == [(0, 2), (4, 5), (6, 11), (7, 12), (8, 10)]
        assert relinks == []


def _fold_views(tree, restricted, leaf_builders, ctx=None):
    """Fold the tree on a manual-mode context (ids are the labels; a fresh
    one unless ``ctx`` is given) and return the snapshot of every internal
    node, with the context's ``claimed`` counts after it, in postorder.

    Leaves ride the fold as bare ids, as in ``SolveContext.run``.  With
    ``leaf_builders`` a node with a leaf operand goes through ``_union_leaf``
    or ``_join_leaf`` on run's dispatch; without, the leaf is materialized
    by ``leaf_summary`` and the generic combine runs.  A join of two leaves
    takes ``_leaf2_joint`` either way: it is part of the frozen tie-breaking
    and not the generic join's result.
    """
    if ctx is None:
        ctx = SolveContext(tree.leaf_count, restricted)
    views = []

    def fold(i):
        if tree.kind[i] == LEAF:
            return tree.a[i]
        l, r = fold(tree.a[i]), fold(tree.b[i])
        join = tree.kind[i] == JOIN
        if join and type(l) is int and type(r) is int:
            s = ctx._leaf2_joint(l, r)
        elif leaf_builders and (type(l) is int or type(r) is int):
            build = ctx._join_leaf if join else ctx._union_leaf
            if type(r) is int:
                if type(l) is int:
                    l = ctx.leaf_summary(l)
                s = build(l, r, False)
            else:
                s = build(r, l, True)
        else:
            if type(l) is int:
                l = ctx.leaf_summary(l)
            if type(r) is int:
                r = ctx.leaf_summary(r)
            s = (ctx.combine_joint if join else ctx.combine_union)(l, r)
        views.append((snapshot(ctx, s), tuple(ctx.claimed)))
        return s

    fold(tree.root)
    return views


def _chain_slots(ctx, head):
    """Slots on the chain starting at head, dead ones included."""
    slots = []
    while head >= 0:
        slots.append(head)
        head = ctx.pn[head]
    return slots


@pytest.fixture
def relinks(monkeypatch):
    """Every ``_relink_fulls`` call made during the test, recorded as the
    vertex count of its two sides; a side in shuffle form holds its full
    pairs as a flat list of 2 * _KC vertex ids and nothing on the arena."""
    calls = []
    relink = SolveContext._relink_fulls

    def recorded(self, l, r):
        for s in (l, r):
            if s[_KF] is not None:
                assert s[_KH] == -1
                assert len(s[_KF]) == 2 * s[_KC]
                assert all(0 <= v < self.n for v in s[_KF])
        calls.append(l[_NV] + r[_NV])
        relink(self, l, r)

    monkeypatch.setattr(SolveContext, "_relink_fulls", recorded)
    return calls


@pytest.fixture
def write_backs(monkeypatch):
    """The flat-list length of every ``_write_back`` made during the test."""
    calls = []
    write_back = SolveContext._write_back

    def counted(self, s):
        calls.append(len(s[_KF]))
        write_back(self, s)

    monkeypatch.setattr(SolveContext, "_write_back", counted)
    return calls


class TestLeafBuilders:
    """The leaf builders equal leaf_summary plus the generic combines at
    every node, pool order, case tag and claimed counts included."""

    @pytest.mark.parametrize("join_bias", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("density", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_node_by_node(self, join_bias, density):
        for seed in range(200):
            n = 2 + seed % 39
            tree = random_cotree(n, join_bias, seed)
            restricted = random_restricted(n, density, seed + 1)
            built = _fold_views(tree, restricted, True)
            generic = _fold_views(tree, restricted, False)
            for node, (b, g) in enumerate(zip(built, generic)):
                assert b == g, f"n={n} seed={seed}: node {node} of {len(built)}"


def _spill_and_cross(self, l, r):
    """What ``_relink_fulls`` replaces: spill both sides, then cross.  The
    cross empties both restricted pools and leaves no free pair, which is
    why the relink joins only the free pools and skips the free-pair
    guard."""
    self._spill(l)
    self._spill(r)
    self._cross(l, r, l[_NR], _KH, _RH)
    assert l[_RH] < 0 and r[_RH] < 0 and l[_FC] == r[_FC] == 0


def _solution_text(tree, restricted):
    try:
        return format_solution(solve(tree, restricted))
    except NoSolutionError as exc:
        return f"no-solution {exc.isolated}"


def _clique_text(lo, hi):
    """A join chain over the labels lo..hi-1: the clique on them."""
    text = str(lo)
    for v in range(lo + 1, hi):
        text = f"(* {text} {v})"
    return text


def _assert_every_slot_accounted(ctx, root, note=""):
    """Each slot of the arena is on exactly one of the root's chains or on
    the free list.  A root in shuffle form holds its full pairs in no slot."""
    slots = [pid for h in (_KH, _SH, _FH) for pid in _chain_slots(ctx, root[h])]
    assert sorted(slots + ctx.free_pids) == list(range(len(ctx.pu))), note


def _p(lo, m):
    """The perfect join of the leaves lo..lo+m-1 (m a power of two), as text."""
    text = serialize_cotree(perfect_join_cotree(m))
    return re.sub(r"[0-9]+", lambda label: str(int(label[0]) + lo), text)


def _free_leaf_under_each_side(m):
    """A perfect join of the restricted leaves 0..m-1 (m a power of two) in
    which each child of every join is first joined with a free leaf of its
    own, (* (* L f) (* R g)); the free leaves are labelled from m up."""
    free = iter(range(m, 3 * m))

    def build(lo, hi):
        if hi - lo == 1:
            return str(lo)
        mid = (lo + hi) // 2
        return f"(* (* {build(lo, mid)} {next(free)}) (* {build(mid, hi)} {next(free)}))"

    return build(0, m), range(m)


# Trees that hand an R = V perfect join of m leaves to each combine other
# than the relink: builder of (text, restricted) by m, and the root's case.
_SHUFFLE_READERS = {
    # combine_union of two such subtrees.
    "union": (lambda m: (f"(+ {_p(0, m)} {_p(m, 2 * m)})", range(3 * m)), "union"),
    # _join_leaf with a restricted leaf, a free leaf, a left leaf: each only
    # pools the leaf, so the side stays in shuffle form.  Then a second
    # restricted leaf, which pairs the first one onto the full chain.
    "leaf-restricted": (lambda m: (f"(* {_p(0, m)} {m})", range(m + 1)),
                        "all-restricted-odd"),
    "leaf-free": (lambda m: (f"(* {_p(0, m)} {m})", range(m)), "keep-full"),
    "leaf-left": (lambda m: (f"(* {m} {_p(0, m)})", range(m + 1)),
                  "all-restricted-odd"),
    "two-leaves": (lambda m: (f"(* (* {_p(0, m)} {m}) {m + 1})", range(m + 2)),
                   "cover-right"),
    # An unequal join: the larger side splits full pairs (_split_fulls),
    # the smaller one spills.
    "deficit": (lambda m: (f"(* {_p(0, 2 * m)} {_p(2 * m, m)})", range(3 * m)),
                "deficit-full"),
    # A balanced cross beside a side of two odd all-restricted cliques,
    # each with one vertex pooled: both sides spill.
    "beside-odd": (lambda m: (f"(* {_p(0, m)} (+ {m} {_clique_text(m + 1, 2 * m)}))",
                              range(2 * m)), "balanced-cross"),
    # Two halves, each with a free vertex unmatched, relink; a free leaf
    # joins their union with another free leaf, and witness-split reads pof.
    "witness-split": (
        lambda m: (f"(* (+ (* (* {_p(0, m // 2)} {m}) (* {_p(m // 2, m // 2)} {m + 1}))"
                   f" {m + 2}) {m + 3})", range(m)),
        "witness-split",
    ),
}


class TestRelinkFulls:
    """A balanced cross of two sides whose restricted vertices all sit in
    full pairs, relinked as a shuffle of their flat endpoint lists, equals
    spilling both sides and crossing: every node's snapshot and claimed
    counts, and the solution text."""

    @staticmethod
    def compare(tree, restricted, monkeypatch):
        reference = SolveContext(tree.leaf_count, restricted)
        reference._relink_fulls = partial(_spill_and_cross, reference)
        relinked = _fold_views(tree, restricted, True)
        spilled = _fold_views(tree, restricted, True, reference)
        for node, (a, b) in enumerate(zip(relinked, spilled)):
            assert a == b, f"node {node} of {len(relinked)}"
        text = _solution_text(tree, restricted)
        with monkeypatch.context() as m:
            m.setattr(SolveContext, "_relink_fulls", _spill_and_cross)
            assert _solution_text(tree, restricted) == text

    @pytest.mark.parametrize("join_bias", [0.5, 0.8])
    @pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
    def test_random_trees(self, relinks, monkeypatch, join_bias, density):
        for seed in range(400):
            n = 2 + seed % 47
            tree = random_cotree(n, join_bias, seed)
            self.compare(tree, random_restricted(n, density, seed + 1), monkeypatch)
        # With nothing restricted a balanced cross is a free cross.
        assert bool(relinks) == (density > 0)

    @pytest.mark.parametrize("all_restricted", [True, False], ids=["R=V", "R=empty"])
    def test_perfect_join_trees(self, relinks, monkeypatch, all_restricted):
        for depth in range(1, 8):
            n = 1 << depth
            tree = perfect_join_cotree(n)
            self.compare(tree, range(n) if all_restricted else [], monkeypatch)
        # With R = V every join above the leaf pairs relinks, once in the
        # fold and once in solve: 2 * (n/2 - 1) per tree.
        assert len(relinks) == (sum(2 * ((1 << d) // 2 - 1) for d in range(1, 8))
                                if all_restricted else 0)

    def test_odd_all_restricted_sides(self, relinks, monkeypatch):
        # Each side is connected, all restricted and of odd order, so it
        # keeps one restricted vertex pooled: the root's balanced cross
        # spills.
        for seed in range(60):
            m = 3 + 2 * (seed % 6)
            sides = []
            for k in range(2):
                side = random_cotree(m, 0.8, 2 * seed + k)
                side.kind[side.root] = JOIN
                sides.append(serialize_cotree(side))
            right = re.sub(r"\d+", lambda t: str(int(t.group()) + m), sides[1])
            tree = parse_cotree(f"(* {sides[0]} {right})")
            relinks.clear()
            self.compare(tree, range(2 * m), monkeypatch)
            assert all(v < 2 * m for v in relinks)

    # A relink leaves its result in shuffle form: the full pairs as one flat
    # list, off the arena.  A combine that reads or extends the full chain
    # writes them back first; a leaf join that only pools its leaf does not.

    @pytest.mark.parametrize("shape", sorted(_SHUFFLE_READERS))
    def test_shuffled_sides_reach_every_other_combine(self, write_backs, monkeypatch, shape):
        build, case = _SHUFFLE_READERS[shape]
        pools_only = shape in ("leaf-free", "leaf-left", "leaf-restricted")
        for m in (2, 4, 8, 16, 32, 64):
            text, restricted = build(m)
            tree = parse_cotree(text)
            write_backs.clear()
            self.compare(tree, restricted, monkeypatch)
            assert solve(tree, restricted).case_trace == case
            if pools_only:
                assert write_backs == [], f"m={m}"
            else:
                # From four leaves up the perfect join is a relink's result.
                assert write_backs or m < 4, f"m={m}"
            ctx = SolveContext(tree.leaf_count, restricted)
            root = ctx.run(tree)
            check_invariants(ctx, root)
            _assert_every_slot_accounted(ctx, root, f"m={m}")

    def test_free_leaf_under_each_side_keeps_the_shuffle(self, relinks, write_backs,
                                                         monkeypatch):
        # Every join above the bottom one relinks sides that have each just
        # pooled a free leaf, so no side is ever written back.
        for m in (2, 4, 8, 16, 32, 64):
            text, restricted = _free_leaf_under_each_side(m)
            tree = parse_cotree(text)
            relinks.clear()
            assert solve(tree, restricted).case_trace == "balanced-cross"
            assert len(relinks) == m // 2 - 1
            self.compare(tree, restricted, monkeypatch)
            assert write_backs == [], f"m={m}"

    @pytest.mark.parametrize("join_bias", [0.5, 0.8])
    @pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
    def test_relink_fires_exactly_when_the_shuffle_holds(self, monkeypatch, join_bias, density):
        # A join's result is in shuffle form exactly when every restricted
        # vertex of both sides sits in a full pair, both sides equally many,
        # and neither side holds a restricted pool entry.  Free pairs and
        # dead slots elsewhere in the solve do not turn the relink off.
        seen = []
        joint = SolveContext.combine_joint

        def checked(self, l, r):
            shuffle = (0 < l[_NR] == r[_NR] == 2 * l[_KC] == 2 * r[_KC]
                       and l[_RH] < 0 and r[_RH] < 0)
            out = joint(self, l, r)
            assert (out[_KF] is not None) == shuffle
            seen.append(shuffle)
            return out

        monkeypatch.setattr(SolveContext, "combine_joint", checked)
        for seed in range(400):
            n = 2 + seed % 47
            tree = random_cotree(n, join_bias, seed)
            ctx = SolveContext(n, random_restricted(n, density, seed + 1))
            check_invariants(ctx, ctx.run(tree))
        assert any(seen) == (density > 0)

    def test_perfect_join_stays_off_the_arena(self):
        # R = V: every join above the leaf pairs relinks, and the first
        # flattens both leaf pairs' slots, which the next leaf pairs reuse.
        # A relink that walked or wrote the arena would grow it.
        n = 1 << 10
        ctx = SolveContext(n, range(n))
        root = ctx.run(perfect_join_cotree(n))
        assert sorted(root[_KF]) == list(range(n))
        assert len(ctx.pu) == 2
        assert sorted(ctx.free_pids) == [0, 1]

    @pytest.mark.parametrize("shuffled", [True, False], ids=["shuffle-form", "arena"])
    def test_unequal_lists_raise(self, shuffled):
        ctx = SolveContext(6, range(6))
        combine = ctx.combine_joint if shuffled else ctx.combine_union
        l = combine(ctx._leaf2_joint(0, 1), ctx._leaf2_joint(2, 3))
        assert (l[_KF] is not None) == shuffled
        with pytest.raises(SolverInternalError, match="unequal length"):
            ctx._relink_fulls(l, ctx._leaf2_joint(4, 5))

    def test_flat_fulls_frees_every_slot(self):
        # A leaf pair's one slot is read without the walk; a longer chain
        # is walked past its dead slot.  Both chains end empty.
        ctx = SolveContext(6, range(6))
        leaf = ctx._leaf2_joint(0, 1)
        assert ctx._flat_fulls(leaf) == [0, 1]
        assert leaf[_KH] == leaf[_KT] == -1 and ctx.free_pids == [0]
        s = ctx.combine_union(ctx._leaf2_joint(2, 3), ctx._leaf2_joint(4, 5))
        ctx.pu[s[_KH]] = -1
        assert ctx._flat_fulls(s) == [4, 5]
        assert s[_KH] == s[_KT] == -1 and sorted(ctx.free_pids) == [0, 1]

    def test_snapshot_leaves_a_shuffled_summary_as_it_is(self):
        ctx = SolveContext(8, range(8))
        leaf2 = ctx._leaf2_joint
        s = ctx.combine_joint(
            ctx.combine_joint(leaf2(0, 1), leaf2(2, 3)),
            ctx.combine_joint(leaf2(4, 5), leaf2(6, 7)),
        )
        arena = [list(a) for a in (ctx.pu, ctx.pv, ctx.pn, ctx.pof, ctx.free_pids)]
        flat = list(s[_KF])
        view = snapshot(ctx, s)
        check_invariants(ctx, s)
        assert view.full_pairs == ((0, 4), (2, 6), (1, 5), (3, 7))
        assert [ctx.pu, ctx.pv, ctx.pn, ctx.pof, ctx.free_pids] == arena
        assert s[_KF] == flat and s[_KH] == -1


class TestExemplars:
    """Summaries keep their exemplars as vertex ids; the snapshot names the
    smallest restricted and free label under each node."""

    @staticmethod
    def min_labels(tree, flags):
        """(smallest restricted label, smallest free label) under each
        internal node, in postorder; None where there is none."""
        out, stack = [], []
        labels = iter(tree.leaf_labels())
        for k in tree.kind:
            if k == LEAF:
                x = next(labels)
                stack.append((x, None) if flags[x] else (None, x))
                continue
            b, a = stack.pop(), stack.pop()
            both = tuple(min((v for v in pair if v is not None), default=None)
                         for pair in zip(a, b))
            stack.append(both)
            out.append(both)
        return out

    @pytest.mark.parametrize("density", [0.0, 0.3, 0.7, 1.0])
    def test_run_mode_exemplars_are_the_smallest_labels(self, monkeypatch, density):
        # random_cotree labels its leaves by a shuffled permutation, so a
        # vertex id (leaf rank) and its label order differently.
        views = []
        depth = [0]

        def recorded(build):
            def call(self, *args):
                depth[0] += 1
                try:
                    s = build(self, *args)
                finally:
                    depth[0] -= 1
                if not depth[0]:  # a join leaf's generic path is one node
                    views.append(snapshot(self, s))
                return s
            return call

        for name in ("combine_union", "combine_joint", "_union_leaf",
                     "_join_leaf", "_leaf2_joint"):
            monkeypatch.setattr(SolveContext, name, recorded(getattr(SolveContext, name)))
        for seed in range(150):
            n = 2 + seed % 41
            tree = random_cotree(n, 0.5, seed)
            restricted = random_restricted(n, density, seed + 1)
            views.clear()
            SolveContext(n, restricted).run(tree)
            got = [(v.exemplar_restricted, v.exemplar_free) for v in views]
            assert got == self.min_labels(tree, restricted.flags), f"seed {seed}"


class TestPairArena:
    def test_every_slot_is_on_a_root_chain_or_free(self):
        # A pop that steps past a dead slot at a chain head frees it too, so
        # after the fold each slot of the arena is on exactly one of the
        # root's chains or on the free list.
        for seed in range(3000):
            n = 4 + seed % 60
            tree = random_cotree(n, 0.7, seed)
            tree.kind[tree.root] = JOIN
            ctx = SolveContext(n, random_restricted(n, 0.5, seed + 1))
            _assert_every_slot_accounted(ctx, ctx.run(tree), f"seed {seed}")


class TestGoldenRegression:
    """Frozen outputs for fixed seeds: the solver's arbitrary choices are a
    stable contract (head-of-sequence selection, ascending leaf seeding)."""

    def test_frozen_instances(self):
        from pairdom.cli import format_solution

        expected = {
            (12, 0.6, 0.5, 101): "beta 4\nkfs 2 0 0\npair 0 2 full\npair 5 8 full\n",
            (9, 0.9, 1.0, 7): (
                "beta 8\nkfs 4 0 0\npair 0 2 full\npair 1 8 full\n"
                "pair 3 7 full\npair 4 6 full\n"
            ),
        }
        for (n, bias, density, seed), text in expected.items():
            tree = random_cotree(n, bias, seed)
            restricted = random_restricted(n, density, seed + 1)
            assert format_solution(solve(tree, restricted)) == text

    def test_frozen_no_solution(self):
        tree = random_cotree(15, 0.3, 55)
        restricted = random_restricted(15, 0.25, 56)
        with pytest.raises(NoSolutionError) as err:
            solve(tree, restricted)
        assert err.value.isolated == (8, 13)


@pytest.fixture
def gc_restored():
    """Put the collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorState:
    """``solve`` pauses cyclic GC for the fold and extraction only."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_solve_leaves_the_collector_as_found(self, gc_restored, enabled):
        (gc.enable if enabled else gc.disable)()
        solve(random_cotree(200, 0.5, 1), random_restricted(200, 0.5, 2))
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_state_is_restored_when_extraction_raises(self, gc_restored, monkeypatch, enabled):
        def broken(self, summ):
            assert not gc.isenabled()
            raise SolverInternalError("broken extraction")

        monkeypatch.setattr(SolveContext, "extract_solution", broken)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(SolverInternalError):
            solve(random_cotree(200, 0.5, 1), random_restricted(200, 0.5, 2))
        assert gc.isenabled() is enabled

    def test_overlapping_solves_in_threads_leave_the_collector_on(
        self, gc_restored, monkeypatch
    ):
        # The first solve pauses the collector and waits inside its fold
        # until the second has started (so it finds the collector off); the
        # second waits until the first has returned, so it finishes last.
        first_inside = threading.Event()
        second_inside = threading.Event()
        first_done = threading.Event()
        run = SolveContext.run

        def ordered_run(self, tree):
            if threading.current_thread() is threads[0]:
                first_inside.set()
                assert second_inside.wait(timeout=30)
            else:
                second_inside.set()
                assert first_done.wait(timeout=30)
            return run(self, tree)

        monkeypatch.setattr(SolveContext, "run", ordered_run)
        tree = random_cotree(300, 0.5, 3)
        restricted = random_restricted(300, 0.5, 4)
        results = []

        def first():
            results.append(solve(tree, restricted))
            first_done.set()

        threads = [
            threading.Thread(target=first),
            threading.Thread(target=lambda: results.append(solve(tree, restricted))),
        ]
        gc.enable()
        threads[0].start()
        assert first_inside.wait(timeout=30)
        threads[1].start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(results) == 2 and results[0] == results[1]
        assert gc.isenabled()


class TestBalancedRootContract:
    def test_balanced_join_covers_exactly_the_restricted_set(self):
        rng = random.Random(42)
        for trial in range(60):
            nl = rng.randint(1, 6)
            nr = rng.randint(1, 6)
            k = rng.randint(1, min(nl, nr))
            left = random_cotree(nl, rng.choice([0.3, 0.7]), trial)
            right = random_cotree(nr, rng.choice([0.3, 0.7]), trial + 1)
            # restricted: k vertices on each side of the root join
            members = rng.sample(range(nl), k) + [nl + v for v in rng.sample(range(nr), k)]
            sol = solve(join_cotrees(left, right), members)
            assert sol.f == 0
            assert sol.matched_number == 2 * k
            assert sorted(sol.vertex_set()) == sorted(members)
