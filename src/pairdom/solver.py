"""Canonical matched-paired domination on decomposition trees, near-linear time.

The solver folds the tree bottom-up.  Every node carries a summary of its
subtree graph: a canonical solution of the graph minus its isolated vertices,
pools of unmatched vertices, and a few O(1) aggregates (a restricted-free
witness edge, the vertices with the smallest restricted and free labels).  A
union concatenates the two child summaries unchanged.  A join rebuilds, with
sides ordered so the left one holds at least as many restricted vertices; the
right solution is always discarded.  When the left side holds more, its
solution is patched with cross pairs, dispatching on how its unmatched
restricted supply compares with the right side's restricted and free demand.
When both hold equally many, the left solution is discarded too and the two
restricted sets are paired straight across.  When every restricted vertex of
both sides sits in a full pair, that cross is the perfect shuffle of the two
sides' full pairs: the relink builds it as one flat endpoint list by slice
assignment.  Every construction leaves at most one free pair.

The solver never looks at adjacency.  The two constructions that need a
restricted-free edge inside one side answer that question from the witness
edge maintained bottom-up, which exists exactly when such an edge exists.

All pair sequences and vertex pools are singly-linked chains threaded through
per-solve arenas, so concatenation and popping are O(1) and a union combine
costs constant time regardless of subtree size.  A relink's result is the
exception: its full pairs stay in their flat list, off the arena, and the
next relink and the extraction read that list as it is.  A combine that
reads or appends to the full chain first writes them back onto the arena,
so pair slots and ``pof`` are valid wherever a chain is read.  Summaries are
flat mutable records (plain lists) owned by their :class:`SolveContext`;
inspect them with :func:`pairdom.diagnostics.snapshot`.  Combines consume
their inputs.
"""

from __future__ import annotations

import gc
from itertools import islice
from typing import Iterable

from .cotree import Cotree, JOIN, LEAF, UNION, _unseen
from .graphs import (
    MPDSolution,
    NoSolutionError,
    RestrictedSet,
    _check_restricted,
)

__all__ = [
    "NodeSummary",
    "SolveContext",
    "SolverInternalError",
    "solve",
]

# A node summary is a flat record (plain list) so the million-node fold stays
# allocation-light.  Pair chains are linked through the context's pair arena;
# vertex pools through per-vertex next slots.  Chains are sentinel-terminated
# (-1); heads of -1 mean empty.
_NV = 0  # vertices in the subtree graph
_NR = 1  # restricted vertices among them
_KC = 2  # full-pair count (chain below)
_SC = 3  # semi-pair count
_FC = 4  # free-pair count
_KH, _KT = 5, 6  # full-pair chain head/tail (pair ids)
_SH, _ST = 7, 8  # semi-pair chain; restricted endpoint stored first
_FH, _FT = 9, 10  # free-pair chain
_RH, _RT = 11, 12  # pool: unmatched restricted vertices
_UH, _UT = 13, 14  # pool: unmatched free vertices
_IC = 15  # isolated vertices in the subtree graph
_WR, _WF = 16, 17  # witness restricted-free edge inside the subtree (-1 none)
# Exemplars: ids of the vertices with the smallest restricted / free label
# (-1 none); tie-breaks compare their labels.
_XR, _XF = 18, 19
_CASE = 20  # tag of the rule that produced this summary
# A relink's result keeps its full pairs out of the arena, as one flat list
# [u1, v1, u2, v2, ...] in chain order; _KH/_KT are then -1 and those
# vertices' pof is stale.  None when the full pairs are on the chain.
_KF = 21
# The chain and pool helpers take a head slot: its tail is the next slot, and
# a pair chain's count sits at half its head slot (_KH >> 1 == _KC, ...).

NodeSummary = list
"""Opaque summary record; owned by a :class:`SolveContext`."""


class SolverInternalError(RuntimeError):
    """A combine violated one of its counting guards; indicates a bug."""


class SolveContext:
    """Arenas and combine rules for one solve run.

    One context serves one (vertex count, restricted set) instance; build
    leaf summaries and fold them with the combine methods, or let
    :meth:`run` drive the whole postorder (once; it renumbers the vertices,
    so do not mix the two on one context).  A context is single-threaded;
    distinct contexts are fully independent.
    """

    def __init__(self, n: int, restricted: RestrictedSet | Iterable[int]) -> None:
        if not isinstance(restricted, RestrictedSet):
            restricted = RestrictedSet(n, restricted)
        _check_restricted(restricted, n)
        self.n = n
        self.restricted = restricted
        self.rflags = restricted.flags  # by label
        # Vertex ids.  Manual combines use the labels themselves; run()
        # numbers the vertices by leaf order and records their labels here.
        # Pools, pairs, witness edges and exemplars hold ids; every
        # tie-break compares labels.
        self.labels = range(n)
        # Pair arena: endpoints plus the chain link.  The slot of a pair that
        # leaves its chain is reused: a pair popped off a chain head may hand
        # it straight to the pair that replaces it, and destroyed pairs put
        # theirs on the free list.  A pair removed from the middle of a chain
        # is marked dead by pu[pid] = -1; walkers skip it and free its slot.
        # A relink frees its sides' slots and keeps the pairs in the
        # summary's _KF list; they get slots again only when another combine
        # writes them back.
        self.pu: list[int] = []
        self.pv: list[int] = []
        self.pn: list[int] = []
        self.free_pids: list[int] = []
        self.pof = [-1] * n  # vertex -> pair id; valid while on a chain
        self.nxt = [-1] * n  # link slot for the unmatched pools
        # claimed[v] > 0 means v was consumed out of turn by a construction
        # that picked it directly (exemplar or witness vertex); the pending
        # count is settled either by skipping v's pool entry when a pop or a
        # spill reaches it, or by suppressing v's next release.  A vertex is
        # never physically present in two pool positions at once.
        self.claimed = [0] * n
        # (head slot, link array) of the chains a join's tail and a union
        # concatenate; built once, as they are on every combine's path.
        self._pool_links = ((_RH, self.nxt), (_UH, self.nxt))
        self._union_links = ((_KH, self.pn), (_SH, self.pn), (_FH, self.pn),
                             *self._pool_links)

    # -- summary constructors -------------------------------------------------

    def leaf_summary(self, vertex: int) -> NodeSummary:
        """Summary of a single-vertex subtree.

        The vertex is isolated and unmatched; whether it lands in the
        restricted or the free pools follows the context's restricted set.
        """
        v = vertex
        self.nxt[v] = -1
        if self.rflags[self.labels[v]]:
            return [1, 1, 0, 0, 0, -1, -1, -1, -1, -1, -1, v, v, -1, -1,
                    1, -1, -1, v, -1, "leaf", None]
        return [1, 0, 0, 0, 0, -1, -1, -1, -1, -1, -1, -1, -1, v, v,
                1, -1, -1, -1, v, "leaf", None]

    # -- chain primitives ------------------------------------------------------

    def _add_pair(self, summ: NodeSummary, chain: int, u: int, v: int) -> None:
        """Append a new pair (u, v) to the chain whose head slot is chain;
        freed slots first."""
        pu, pv, pn = self.pu, self.pv, self.pn
        if self.free_pids:
            pid = self.free_pids.pop()
            pu[pid] = u
            pv[pid] = v
            pn[pid] = -1
        else:
            pid = len(pu)
            pu.append(u)
            pv.append(v)
            pn.append(-1)
        self.pof[u] = pid
        self.pof[v] = pid
        tail = summ[chain + 1]
        if tail < 0:
            summ[chain] = pid
        else:
            pn[tail] = pid
        summ[chain + 1] = pid
        summ[chain >> 1] += 1

    def _pop_pair(self, summ: NodeSummary, chain: int) -> tuple[int, int]:
        """Remove the first live pair of the chain whose head slot is chain;
        its slot, and any dead slot stepped past, go to the free list.
        Returns its endpoints."""
        pn, pu = self.pn, self.pu
        h = summ[chain]
        while True:
            if h < 0:
                raise SolverInternalError("pair pop from an empty chain")
            pid = h
            h = pn[pid]
            if pu[pid] >= 0:
                break
            self.free_pids.append(pid)  # dead
        summ[chain] = h
        if h < 0:
            summ[chain + 1] = -1
        summ[chain >> 1] -= 1
        self.free_pids.append(pid)
        return pu[pid], self.pv[pid]

    def _pop_pool(self, summ: NodeSummary, pool: int) -> int:
        """Pop one available vertex from the pool whose head slot is pool."""
        nxt, claimed = self.nxt, self.claimed
        h = summ[pool]
        while True:
            if h < 0:
                raise SolverInternalError("pop from an empty pool")
            v = h
            h = nxt[v]
            if claimed[v]:
                claimed[v] -= 1
                continue
            break
        summ[pool] = h
        if h < 0:
            summ[pool + 1] = -1
        return v

    # Batched forms of the three hot loop shapes; same semantics as composing
    # the single-step helpers, with the chain plumbing hoisted out of the
    # per-pair path.

    def _cross(self, l: NodeSummary, r: NodeSummary, cnt: int, chain: int, pool: int) -> None:
        """cnt cross pairs (left restricted pop, right pop from the pool whose
        head slot is pool) appended to l's chain whose head slot is chain."""
        if cnt <= 0:
            return
        pu, pv, pn = self.pu, self.pv, self.pn
        pof, nxt, claimed = self.pof, self.nxt, self.claimed
        free = self.free_pids
        take_free = free.pop
        lh = l[_RH]
        rh = r[pool]
        head, tail = l[chain], l[chain + 1]
        for _ in range(cnt):
            u = lh
            if u < 0:
                raise SolverInternalError("pop from an empty pool")
            lh = nxt[u]
            while claimed[u]:
                claimed[u] -= 1
                u = lh
                if u < 0:
                    raise SolverInternalError("pop from an empty pool")
                lh = nxt[u]
            v = rh
            if v < 0:
                raise SolverInternalError("pop from an empty pool")
            rh = nxt[v]
            while claimed[v]:
                claimed[v] -= 1
                v = rh
                if v < 0:
                    raise SolverInternalError("pop from an empty pool")
                rh = nxt[v]
            if free:
                pid = take_free()
                pu[pid] = u
                pv[pid] = v
                pn[pid] = -1
            else:
                pid = len(pu)
                pu.append(u)
                pv.append(v)
                pn.append(-1)
            pof[u] = pid
            pof[v] = pid
            if tail < 0:
                head = pid
            else:
                pn[tail] = pid
            tail = pid
        l[_RH] = lh
        if lh < 0:
            l[_RT] = -1
        r[pool] = rh
        if rh < 0:
            r[pool + 1] = -1
        l[chain], l[chain + 1] = head, tail
        l[chain >> 1] += cnt

    def _semis_to_fulls(self, l: NodeSummary, r: NodeSummary, cnt: int) -> None:
        """Destroy cnt semi pairs; each restricted endpoint re-pairs with a
        right restricted pop (full), each free partner returns to the pool.

        The free list is LIFO, so the new full pair takes over the slot of
        the semi pair it replaces.
        """
        for _ in range(cnt):
            u, w = self._pop_pair(l, _SH)
            self._push_free(l, w)
            self._add_pair(l, _KH, u, self._pop_pool(r, _RH))

    def _split_fulls(self, l: NodeSummary, r: NodeSummary, cnt: int) -> None:
        """Destroy cnt full pairs; all endpoints re-pair with right
        restricted pops, two new full pairs per old one.  The first new pair
        takes over the old pair's slot, which has just left the chain head;
        dead slots stepped past on the way go to the free list.

        Callers guarantee cnt is strictly below the live full-pair count, so
        the head cursor below can never run into the pairs this loop appends
        at the tail, and the chain never empties mid-loop.
        """
        if cnt <= 0:
            return
        pu, pv, pn = self.pu, self.pv, self.pn
        pof, nxt, claimed = self.pof, self.nxt, self.claimed
        free = self.free_pids
        take_free = free.pop
        kh = l[_KH]
        rh = r[_RH]
        tail = l[_KT]
        for _ in range(cnt):
            old = kh
            if old < 0:
                raise SolverInternalError("full-pair pop from an empty chain")
            kh = pn[old]
            while pu[old] < 0:  # dead: freed as it leaves the chain
                free.append(old)
                old = kh
                if old < 0:
                    raise SolverInternalError("full-pair pop from an empty chain")
                kh = pn[old]
            # (pu[old], v): the old slot, relinked at the tail; pof of its
            # kept endpoint already names it.
            v = rh
            if v < 0:
                raise SolverInternalError("restricted pop from an empty pool")
            rh = nxt[v]
            while claimed[v]:
                claimed[v] -= 1
                v = rh
                if v < 0:
                    raise SolverInternalError("restricted pop from an empty pool")
                rh = nxt[v]
            w = pv[old]
            pv[old] = v
            pof[v] = old
            pn[tail] = old
            # (w, v): a new slot.
            v = rh
            if v < 0:
                raise SolverInternalError("restricted pop from an empty pool")
            rh = nxt[v]
            while claimed[v]:
                claimed[v] -= 1
                v = rh
                if v < 0:
                    raise SolverInternalError("restricted pop from an empty pool")
                rh = nxt[v]
            if free:
                tail = take_free()
                pu[tail] = w
                pv[tail] = v
                pn[tail] = -1
            else:
                tail = len(pu)
                pu.append(w)
                pv.append(v)
                pn.append(-1)
            pof[w] = tail
            pof[v] = tail
            pn[old] = tail
        l[_KH] = kh
        l[_KT] = tail
        l[_KC] += cnt
        r[_RH] = rh
        if rh < 0:
            r[_RT] = -1

    def _relink_fulls(self, l: NodeSummary, r: NodeSummary) -> None:
        """Balanced cross of two sides whose restricted vertices all sit in
        full pairs, neither restricted pool holding an entry: the exact
        result of spilling both sides and crossing rl pairs, left in shuffle
        form on l.

        Spilled, the i-th full pairs (ul, vl) of l and (ur, vr) of r pool as
        ul, vl and ur, vr, so the cross pairs (ul, ur) then (vl, vr): the
        result's flat list is the perfect shuffle of the two sides' lists.
        Free pairs drop into their side's free pool, as the spill drops
        them; no restricted pool is written and no slot taken.
        """
        if l[_FC]:
            self._drop_free_pairs(l)
        if r[_FC]:
            self._drop_free_pairs(r)
        fl = l[_KF] or self._flat_fulls(l)
        fr = r[_KF] or self._flat_fulls(r)
        if len(fl) != len(fr):
            raise SolverInternalError("relink: full chains of unequal length")
        f = fl * 2
        f[0::2] = fl
        f[1::2] = fr
        l[_KF] = f
        l[_KC] *= 2

    def _flat_fulls(self, s: NodeSummary) -> list[int]:
        """The flat endpoint list of s's full chain, which holds a live
        pair, walked once; its slots, dead ones included, go to the free
        list and the chain is left empty.  A one-slot chain, such as a
        restricted leaf pair's, is read without the walk."""
        pu, pv, pn = self.pu, self.pv, self.pn
        pid = s[_KH]
        if pid == s[_KT]:
            self.free_pids.append(pid)
            s[_KH] = s[_KT] = -1
            return [pu[pid], pv[pid]]
        free = self.free_pids.append
        f = []
        add = f.append
        while pid >= 0:
            u = pu[pid]
            if u >= 0:  # else dead
                add(u)
                add(pv[pid])
            free(pid)
            pid = pn[pid]
        s[_KH] = s[_KT] = -1
        return f

    def _write_back(self, s: NodeSummary) -> None:
        """Put a shuffle-form summary's full pairs back on its arena chain,
        one _add_pair per pair, so their slots and pof are valid again."""
        it = iter(s[_KF])
        s[_KF] = None
        s[_KC] = 0
        for u, v in zip(it, it):
            self._add_pair(s, _KH, u, v)

    def _append_pool(self, summ: NodeSummary, pool: int, v: int) -> None:
        """Append v to the pool whose head slot is pool."""
        nxt = self.nxt
        nxt[v] = -1
        t = summ[pool + 1]
        if t < 0:
            summ[pool] = v
        else:
            nxt[t] = v
        summ[pool + 1] = v

    def _push_free(self, summ: NodeSummary, v: int) -> None:
        claimed = self.claimed
        if claimed[v]:
            claimed[v] -= 1  # release suppressed: v was taken out of turn
        else:
            self._append_pool(summ, _UH, v)

    # The bulk releases below append to a pool by writing the link slot of
    # the previous tail only; the final tail is terminated once at the end.

    def _spill(self, summ: NodeSummary) -> None:
        """Destroy the summary's entire solution; endpoints drop into pools.
        A summary without pairs is left as it is."""
        if not (summ[_KC] or summ[_SC] or summ[_FC]):
            return
        pn, pu, pv = self.pn, self.pu, self.pv
        nxt, claimed = self.nxt, self.claimed
        free = self.free_pids.append
        rt, ut = summ[_RT], summ[_UT]
        rh, uh = summ[_RH], summ[_UH]
        pid = summ[_KH]
        while pid >= 0:
            w = pu[pid]
            if w >= 0:  # live
                if claimed[w]:
                    claimed[w] -= 1
                elif rt < 0:
                    rh = rt = w
                else:
                    nxt[rt] = w
                    rt = w
                w = pv[pid]
                if claimed[w]:
                    claimed[w] -= 1
                elif rt < 0:
                    rh = rt = w
                else:
                    nxt[rt] = w
                    rt = w
            free(pid)
            pid = pn[pid]
        pid = summ[_SH]
        while pid >= 0:
            w = pu[pid]
            if claimed[w]:
                claimed[w] -= 1
            elif rt < 0:
                rh = rt = w
            else:
                nxt[rt] = w
                rt = w
            w = pv[pid]
            if claimed[w]:
                claimed[w] -= 1
            elif ut < 0:
                uh = ut = w
            else:
                nxt[ut] = w
                ut = w
            free(pid)
            pid = pn[pid]
        if rt >= 0:
            nxt[rt] = -1
        if ut >= 0:
            nxt[ut] = -1
        summ[_RH], summ[_RT] = rh, rt
        summ[_UH], summ[_UT] = uh, ut
        summ[_KC] = summ[_SC] = 0
        summ[_KH] = summ[_KT] = summ[_SH] = summ[_ST] = -1
        if summ[_FC]:
            self._drop_free_pairs(summ)

    def _drop_free_pairs(self, summ: NodeSummary) -> None:
        """Discard all free pairs; their endpoints return to the free pool."""
        pn, pu, pv = self.pn, self.pu, self.pv
        nxt, claimed = self.nxt, self.claimed
        free = self.free_pids.append
        uh, ut = summ[_UH], summ[_UT]
        pid = summ[_FH]
        while pid >= 0:
            w = pu[pid]
            if claimed[w]:
                claimed[w] -= 1
            elif ut < 0:
                uh = ut = w
            else:
                nxt[ut] = w
                ut = w
            w = pv[pid]
            if claimed[w]:
                claimed[w] -= 1
            elif ut < 0:
                uh = ut = w
            else:
                nxt[ut] = w
                ut = w
            free(pid)
            pid = pn[pid]
        if ut >= 0:
            nxt[ut] = -1
        summ[_UH], summ[_UT] = uh, ut
        summ[_FC] = 0
        summ[_FH] = summ[_FT] = -1

    def _concat(self, l: NodeSummary, r: NodeSummary, links) -> None:
        """Append r's chains to l's, for each (head slot, link array) in links."""
        for h, link in links:
            rh = r[h]
            if rh >= 0:
                if l[h] < 0:
                    l[h] = rh
                else:
                    link[l[h + 1]] = rh
                l[h + 1] = r[h + 1]

    # -- specialized tiny combines -----------------------------------------
    #
    # Two thirds of the internal nodes of a random tree touch a leaf child;
    # _union_leaf and _join_leaf produce the exact result of composing
    # leaf_summary with the generic combines, without materializing the leaf
    # record.  _leaf2_joint does not: see its docstring.

    def _union_leaf(self, s: NodeSummary, v: int, leaf_left: bool) -> NodeSummary:
        """Union of an inner summary s with the leaf v (the left operand when
        leaf_left), built on s in place: v goes to the head of its pool when
        it is the left operand, to the tail otherwise."""
        nxt = self.nxt
        lab = self.labels
        x = lab[v]
        s[_NV] += 1
        s[_IC] += 1
        if self.rflags[x]:
            s[_NR] += 1
            pool, ex = _RH, _XR
        else:
            pool, ex = _UH, _XF
        if leaf_left:
            h = s[pool]
            nxt[v] = h
            s[pool] = v
            if h < 0:
                s[pool + 1] = v
        else:
            nxt[v] = -1
            t = s[pool + 1]
            if t < 0:
                s[pool] = v
            else:
                nxt[t] = v
            s[pool + 1] = v
        if s[ex] < 0 or x < lab[s[ex]]:
            s[ex] = v
        s[_CASE] = "union"
        return s

    def _leaf2_joint(self, u: int, v: int) -> NodeSummary:
        """Join of two leaves: exactly one cross pair, nothing pooled.

        This is part of the frozen tie-breaking, not a shortcut for
        combine_joint on two leaf summaries: in the free-cross case the
        generic join leaves both endpoints claimed in the free pool, where
        they resurface at the pool's head when the free pair is later
        dropped, while here they are appended at the tail.
        """
        lab = self.labels
        xu, xv = lab[u], lab[v]
        fu = self.rflags[xu]
        fv = self.rflags[xv]
        if fv and not fu:
            u, v, xu, xv, fu, fv = v, u, xv, xu, fv, fu  # restricted endpoint first
        pu, pv, pn = self.pu, self.pv, self.pn
        free = self.free_pids
        if free:
            pid = free.pop()
            pu[pid] = u
            pv[pid] = v
            pn[pid] = -1
        else:
            pid = len(pu)
            pu.append(u)
            pv.append(v)
            pn.append(-1)
        self.pof[u] = pid
        self.pof[v] = pid
        if fv:
            return [2, 2, 1, 0, 0, pid, pid, -1, -1, -1, -1, -1, -1, -1, -1,
                    0, -1, -1, u if xu < xv else v, -1, "balanced-cross", None]
        if fu:
            return [2, 1, 0, 1, 0, -1, -1, pid, pid, -1, -1, -1, -1, -1, -1,
                    0, u, v, u, v, "cover-right", None]
        return [2, 0, 0, 0, 1, -1, -1, -1, -1, pid, pid, -1, -1, -1, -1,
                0, -1, -1, -1, u if xu < xv else v, "free-cross", None]

    def _join_leaf(self, s: NodeSummary, v: int, leaf_left: bool) -> NodeSummary:
        """Join of an inner summary s with the leaf v (the left operand when
        leaf_left), built on s in place: the exact result of combine_joint
        on s and leaf_summary(v).  The two rare constructions that need
        s's witness edge or a second free vertex take that generic path.
        A side in shuffle form has nr >= 2 > res, so it is kept, and it is
        written back only before a full pair is appended to its chain.
        """
        nr = s[_NR]
        xf = s[_XF]  # id of s's smallest free vertex
        lab = self.labels
        x = lab[v]
        res = self.rflags[x]
        if nr > res:
            # s is the kept side; v is the one right vertex.  The pair that
            # covers v is full when v is restricted, semi otherwise.
            spare = nr - 2 * s[_KC] - s[_SC]
            if spare > 0 or s[_SC]:
                if s[_FC]:
                    self._drop_free_pairs(s)
                if spare > 0:
                    u = self._pop_pool(s, _RH)
                    case = "cover-right"
                else:
                    u, w = self._pop_pair(s, _SH)
                    self._push_free(s, w)
                    case = "deficit-semi" if res else "move-semi"
                if res and s[_KF] is not None:
                    self._write_back(s)
                self._add_pair(s, _KH if res else _SH, u, v)
            elif not res:
                if s[_FC] or s[_IC]:
                    leaf = self.leaf_summary(v)
                    if leaf_left:
                        return self.combine_joint(leaf, s)
                    return self.combine_joint(s, leaf)
                self._append_pool(s, _UH, v)
                case = "keep-full"
            elif s[_NV] > nr:
                if s[_FC]:
                    self._drop_free_pairs(s)
                self._add_pair(s, _SH, v, self._pop_pool(s, _UH))
                case = "deficit-odd-left-free"
            else:
                if s[_FC]:
                    raise SolverInternalError("all-restricted guard violated")
                self._append_pool(s, _RH, v)
                case = "all-restricted-odd"
        else:
            # v's side holds at least as many restricted vertices: s's
            # solution is discarded.  As in the generic join, the free-cross
            # claims come before the spill, which then settles xf's claim
            # instead of pooling it, so xf cannot resurface at that position.
            if not nr and not res:
                claimed = self.claimed
                claimed[v] += 1
                claimed[xf] += 1
            self._spill(s)
            if nr:
                w = self._pop_pool(s, _RH)
                self._add_pair(s, _KH, *((v, w) if leaf_left else (w, v)))
                case = "balanced-cross"
            elif res:
                self._add_pair(s, _SH, v, self._pop_pool(s, _UH))
                case = "cover-plus"
            else:
                self._add_pair(s, _FH, *((v, xf) if leaf_left else (xf, v)))
                if leaf_left:
                    h = s[_UH]
                    self.nxt[v] = h
                    s[_UH] = v
                    if h < 0:
                        s[_UT] = v
                else:
                    self._append_pool(s, _UH, v)
                case = "free-cross"
        # v is adjacent to all of s: with s's exemplar of the other kind,
        # when s has one, it forms the witness edge.
        if res:
            if xf >= 0:
                s[_WR], s[_WF] = v, xf
            ex = _XR
        else:
            if nr:
                s[_WR], s[_WF] = s[_XR], v
            ex = _XF
        if s[ex] < 0 or x < lab[s[ex]]:
            s[ex] = v
        s[_NR] = nr + res
        s[_NV] += 1
        s[_IC] = 0
        s[_CASE] = case
        return s

    # -- combines ---------------------------------------------------------

    def combine_union(self, left: NodeSummary, right: NodeSummary) -> NodeSummary:
        """Disjoint union: concatenate everything fieldwise, O(1).

        Both inputs are consumed; the merged record is returned.
        """
        l, r = left, right
        if l[_KF] is not None:
            self._write_back(l)
        if r[_KF] is not None:
            self._write_back(r)
        l[_NV] += r[_NV]
        l[_NR] += r[_NR]
        l[_KC] += r[_KC]
        l[_SC] += r[_SC]
        l[_FC] += r[_FC]
        l[_IC] += r[_IC]

        self._concat(l, r, self._union_links)

        if l[_WR] < 0 and r[_WR] >= 0:
            l[_WR] = r[_WR]
            l[_WF] = r[_WF]
        lab = self.labels
        for ex in (_XR, _XF):
            x = r[ex]
            if x >= 0 and (l[ex] < 0 or lab[x] < lab[l[ex]]):
                l[ex] = x
        l[_CASE] = "union"
        return l

    def combine_joint(self, left: NodeSummary, right: NodeSummary) -> NodeSummary:
        """Join: rebuild a canonical solution from the two child summaries.

        The children are reordered so the kept side ("left" below) has at
        least as many restricted vertices.  The right side's solution is
        always discarded, and the left one too when the restricted counts
        are equal; discarded vertices are re-paired across the cut or left
        in the pools.  Equal counts shuffle the two sides' full pairs into
        one flat list (``_relink_fulls``) when every restricted vertex sits
        in a full pair and neither side holds a restricted pool entry; that
        gate is tested first, after the witness and exemplar merge, and the
        relink ends with its own short tail.  Any other balanced cross
        spills both sides and crosses.  Every path but the relink writes a
        shuffle-form side back onto the arena first.  The joint graph has
        no isolated vertices, so the output isolated count is zero.
        Consumes both inputs.
        """
        l, r = left, right
        if l[_NR] < r[_NR]:
            l, r = r, l
        rl = l[_NR]
        rr = r[_NR]

        # Witness and exemplars describe the graph, not the matching; compute
        # the merged values from the pre-combine slots now, install at the end.
        lab = self.labels
        wr, wf = l[_WR], l[_WF]
        lxr, lxf, rxr, rxf = l[_XR], l[_XF], r[_XR], r[_XF]
        if lxr >= 0 and rxf >= 0:
            wr, wf = lxr, rxf
        elif rxr >= 0 and lxf >= 0:
            wr, wf = rxr, lxf
        elif wr < 0:
            wr, wf = r[_WR], r[_WF]
        xr = lxr if rxr < 0 or (lxr >= 0 and lab[lxr] < lab[rxr]) else rxr
        xf = lxf if rxf < 0 or (lxf >= 0 and lab[lxf] < lab[rxf]) else rxf

        if 0 < rl == rr == 2 * l[_KC] == 2 * r[_KC] and l[_RH] < 0 and r[_RH] < 0:
            # The shuffle holds.  Both restricted pools are empty and the
            # relink drops the free pairs, so only the free pools join and
            # the free-pair guard below cannot fire.
            self._relink_fulls(l, r)
            rh = r[_UH]
            if rh >= 0:
                if l[_UH] < 0:
                    l[_UH] = rh
                else:
                    self.nxt[l[_UT]] = rh
                l[_UT] = r[_UT]
            l[_IC] = 0
            l[_NV] += r[_NV]
            l[_NR] = rl + rr
            l[_WR], l[_WF] = wr, wf
            l[_XR], l[_XF] = xr, xf
            l[_CASE] = "balanced-cross"
            return l
        # Only the relink reads a side's flat list; every other path below
        # reads the arena, so a shuffle-form side is written back first.
        if l[_KF] is not None:
            self._write_back(l)
        if r[_KF] is not None:
            self._write_back(r)
        claimed = self.claimed
        if rl == rr == 0:
            # No restricted vertices at all: a single cross pair dominates
            # everything, and one pair is the least any solution can use.
            claimed[lxf] += 1
            claimed[rxf] += 1
            self._spill(l)
            self._spill(r)
            self._add_pair(l, _FH, lxf, rxf)
            case = "free-cross"
        elif rl == rr:
            # Equal restricted counts: discard both solutions and pair the
            # restricted sets straight across; every pair is full, nothing
            # else is needed for domination.
            self._spill(l)
            self._spill(r)
            self._cross(l, r, rl, _KH, _RH)
            case = "balanced-cross"
        else:
            kl = l[_KC]
            sl = l[_SC]
            fl = l[_FC]
            spare = rl - 2 * kl - sl  # unmatched restricted on the kept side
            res_r = rr
            free_r = r[_NV] - rr
            if spare < 0 or 2 * kl + sl + spare <= res_r:
                raise SolverInternalError(
                    f"joint guard: spare={spare} kl={kl} sl={sl} res_r={res_r}"
                )
            self._spill(r)
            # Every case below either drops the kept free pairs or requires
            # fl == 0, so they go now; the guards read fl.
            if fl:
                self._drop_free_pairs(l)
            if spare > 0 and spare >= res_r:
                # The spare pool covers every right restricted vertex (full
                # pairs) and as many right free vertices as it can reach
                # (semi pairs).  Whatever it cannot reach stays unmatched;
                # whatever it can reach makes the kept solution only better.
                semis = spare - res_r
                if semis >= free_r:
                    semis = free_r
                    case = "cover-right"  # right side fully matched
                elif semis > 0:
                    case = "cover-plus"  # all spares matched, free right left over
                else:
                    case = "exact-cross"  # spare == res_r, spare pool exactly used
                self._cross(l, r, res_r, _KH, _RH)
                self._cross(l, r, semis, _SH, _UH)
            elif spare == res_r:  # both zero: the right side is entirely free
                if sl:
                    # Re-pair one semi's restricted endpoint across the cut;
                    # the cross pair dominates both sides, the old free
                    # partner is released.
                    u, v = self._pop_pair(l, _SH)
                    self._push_free(l, v)
                    self._add_pair(l, _SH, u, self._pop_pool(r, _UH))
                    case = "move-semi"
                elif fl == 0 and l[_IC] == 0:
                    # The kept full pairs already dominate their own side,
                    # and any matched left vertex dominates the whole right.
                    case = "keep-full"
                elif free_r >= 2:
                    # Split one full pair across two right free vertices:
                    # same matched count, no free pair.
                    a, b = self._pop_pair(l, _KH)
                    self._add_pair(l, _SH, a, self._pop_pool(r, _UH))
                    self._add_pair(l, _SH, b, self._pop_pool(r, _UH))
                    case = "split-full"
                elif l[_WR] >= 0:
                    # One right free vertex only, and the left side has a
                    # restricted-free edge: split the witness's full pair,
                    # sending its partner across and re-pairing the witness
                    # endpoint along its own edge.
                    w_res, w_free = l[_WR], l[_WF]
                    pid = self.pof[w_res]
                    if pid < 0 or (self.pu[pid] != w_res and self.pv[pid] != w_res):
                        raise SolverInternalError("witness endpoint is not matched")
                    partner = self.pv[pid] if self.pu[pid] == w_res else self.pu[pid]
                    self.pu[pid] = -1  # dead; chain walkers skip it
                    l[_KC] -= 1
                    claimed[w_free] += 1
                    self._add_pair(l, _SH, partner, self._pop_pool(r, _UH))
                    self._add_pair(l, _SH, w_res, w_free)
                    case = "witness-split"
                else:
                    # Every restricted vertex's whole neighborhood is
                    # restricted; one free pair is unavoidable.
                    self._add_pair(
                        l, _FH, self._pop_pool(l, _UH), self._pop_pool(r, _UH)
                    )
                    case = "free-bridge"
            else:
                # Deficit: more restricted vertices on the right than the
                # spare pool can absorb.  Cross-pair the spares, then feed
                # the leftover right restricted vertices from the kept
                # solution: first semi pairs give up their free partners,
                # then full pairs are split two-at-a-time.
                deficit = res_r - spare
                if 2 * kl + sl <= deficit:
                    raise SolverInternalError(
                        f"deficit guard: kl={kl} sl={sl} deficit={deficit}"
                    )
                # With an odd full-pair leftover the parity fix may need the
                # right side's witness edge; its restricted endpoint must be
                # reserved now, before the loops below drain the pool.
                b = deficit - sl  # right restricted beyond what semis absorb
                odd_witness = None
                if deficit > sl and b & 1 and l[_NV] - rl == 0 and r[_WR] >= 0:
                    odd_witness = (r[_WR], r[_WF])
                    claimed[odd_witness[0]] += 1
                    claimed[odd_witness[1]] += 1
                self._cross(l, r, spare, _KH, _RH)
                if deficit <= sl:
                    self._semis_to_fulls(l, r, deficit)
                    case = "deficit-semi"
                else:
                    self._semis_to_fulls(l, r, sl)
                    if b & 1:
                        # Odd leftover: one semi pair (or one sacrificed
                        # vertex) restores even parity.
                        if l[_NV] - rl > 0:
                            # A free vertex exists on the kept side.
                            self._add_pair(
                                l, _SH, self._pop_pool(r, _RH), self._pop_pool(l, _UH)
                            )
                            case = "deficit-odd-left-free"
                        elif odd_witness is not None:
                            # The right side has a restricted-free edge; its
                            # free endpoint is necessarily non-isolated.
                            self._add_pair(l, _SH, odd_witness[0], odd_witness[1])
                            case = "deficit-odd-witness"
                        elif free_r > 0:
                            # Only unattached right free vertices: split one
                            # kept full pair to reach one of them.
                            a, partner = self._pop_pair(l, _KH)
                            self._add_pair(l, _KH, partner, self._pop_pool(r, _RH))
                            self._add_pair(l, _SH, a, self._pop_pool(r, _UH))
                            case = "deficit-odd-split"
                        else:
                            # Everything is restricted and the order is odd:
                            # one right vertex stays unmatched (it is
                            # dominated by any matched left vertex).
                            if sl != 0 or fl != 0 or l[_NV] != rl:
                                raise SolverInternalError(
                                    "all-restricted guard violated"
                                )
                            case = "all-restricted-odd"
                        b -= 1  # parity restored (or one vertex left pooled)
                    else:
                        case = "deficit-full"
                    self._split_fulls(l, r, b // 2)

        # Common tail: absorb the remaining right pools, clear isolation,
        # install graph-level aggregates.
        self._concat(l, r, self._pool_links)
        l[_IC] = 0
        l[_NV] += r[_NV]
        l[_NR] = rl + rr
        l[_WR], l[_WF] = wr, wf
        l[_XR], l[_XF] = xr, xf
        l[_CASE] = case
        if l[_NR] > 0 and l[_FC] > (1 if case == "free-bridge" else 0):
            raise SolverInternalError(f"free-pair guard after {case}")
        return l

    # -- extraction ---------------------------------------------------------

    def extract_solution(self, summ: NodeSummary) -> MPDSolution:
        """Flatten a summary into a solution: two label columns, its full,
        then semi, then free pairs, with no pair tuple built.

        Raises :class:`NoSolutionError` when the summary's graph has isolated
        vertices.  The summary only counts them, so the error's ``isolated``
        is empty here; :func:`solve` names them, reading them off the tree
        before any fold.
        """
        if summ[_IC]:
            raise NoSolutionError(
                f"no solution: the graph has {summ[_IC]} isolated vertices"
            )
        lab = self.labels.__getitem__
        us: list[int] = []
        vs: list[int] = []
        counts = []
        for chain in (_KH, _SH, _FH):
            cu, cv = self._pair_ends(summ, chain)
            done = len(us)
            us.extend(map(lab, cu))
            vs.extend(map(lab, cv))
            counts.append(len(us) - done)
        k, s, f = counts
        if (k, s, f) != (summ[_KC], summ[_SC], summ[_FC]):
            raise SolverInternalError(
                f"chain counts {(k, s, f)} disagree with "
                f"{(summ[_KC], summ[_SC], summ[_FC])}"
            )
        return MPDSolution._of_columns(us, vs, k, s, f, summ[_CASE])

    def _pair_ends(self, summ: NodeSummary, chain: int) -> tuple[Iterable[int], ...]:
        """Endpoint ids of the live pairs on the chain whose head slot is
        chain.  A shuffle-form full chain is read off its flat list, which
        stays as it is."""
        if chain == _KH and summ[_KF] is not None:
            f = summ[_KF]
            return islice(f, 0, None, 2), islice(f, 1, None, 2)
        us: list[int] = []
        vs: list[int] = []
        pu, pv, pn = self.pu, self.pv, self.pn
        pid = summ[chain]
        while pid >= 0:
            u = pu[pid]
            if u >= 0:  # else dead
                us.append(u)
                vs.append(pv[pid])
            pid = pn[pid]
        return us, vs

    # -- driver ---------------------------------------------------------------

    def run(self, tree: Cotree) -> NodeSummary:
        """Left-first postorder fold over the whole tree; returns the root
        summary.  The fold walks the kinds in index order, which is that
        postorder."""
        if tree.leaf_count != self.n:
            raise ValueError(
                f"tree has {tree.leaf_count} leaves, context was built for {self.n}"
            )
        # Vertex ids are leaf ranks in left-to-right order, so a subtree's
        # vertices form a contiguous id range and the per-vertex arrays, like
        # the id objects themselves (created together up front), are touched
        # with locality.  Labels only matter for tie-breaks and the output.
        kind = tree.kind
        self.labels = tree.leaf_labels()
        next_id = iter(list(range(self.n))).__next__
        # Leaves ride the value stack as bare vertex ids; a combine whose
        # operand is an int routes through the specialized tiny builders
        # (or materializes a real leaf record: the left leaf of a union of
        # two leaves, or an operand of the generic joint path).
        vals: list = []
        push = vals.append
        pop = vals.pop
        union = self.combine_union
        joint = self.combine_joint
        leaf_summary = self.leaf_summary
        union_leaf = self._union_leaf
        leaf2_joint = self._leaf2_joint
        join_leaf = self._join_leaf
        for knd in kind:
            if knd == LEAF:
                push(next_id())
            elif knd == UNION:
                r = pop()
                l = vals[-1]
                if type(r) is int:
                    if type(l) is int:
                        vals[-1] = union_leaf(leaf_summary(l), r, False)
                    else:
                        vals[-1] = union_leaf(l, r, False)
                elif type(l) is int:
                    vals[-1] = union_leaf(r, l, True)
                else:
                    vals[-1] = union(l, r)
            else:
                r = pop()
                l = vals[-1]
                if type(r) is int:
                    if type(l) is int:
                        vals[-1] = leaf2_joint(l, r)
                    else:
                        vals[-1] = join_leaf(l, r, False)
                elif type(l) is int:
                    vals[-1] = join_leaf(r, l, True)
                else:
                    vals[-1] = joint(l, r)
        root = vals[-1]
        if type(root) is int:
            root = self.leaf_summary(root)
        return root


def solve(tree: Cotree, restricted: RestrictedSet | Iterable[int]) -> MPDSolution:
    """Solve one instance: canonical solution of the tree's graph.

    The output matches as many restricted vertices as any solution can
    (its matched number) and, among such solutions, uses the fewest free
    pairs.  Deterministic: identical inputs give identical outputs.

    Raises :class:`NoSolutionError` when the graph has isolated vertices
    (in particular for a single-leaf tree); they are read off the tree
    before any fold and listed, sorted, in the error's ``isolated``.  A
    join root has none.
    """
    ctx = SolveContext(tree.leaf_count, restricted)
    if tree.kind[tree.root] != JOIN:
        isolated = _unseen(tree, None)
        if isolated:
            raise NoSolutionError(
                "no solution: the graph has isolated vertices "
                + " ".join(str(v) for v in isolated),
                isolated=isolated,
            )
    # Summaries and rows are acyclic, so nothing waits on the cyclic
    # collector; pausing it spares the fold and extraction its passes over
    # their many young objects.  The exit path only ever re-enables: when
    # solves overlap in threads, the one that found the collector on turns
    # it back on and the others leave it alone, so no lock or counter is
    # needed.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return ctx.extract_solution(ctx.run(tree))
    finally:
        if was_enabled:
            gc.enable()
