"""Readable views of the solver's summary records, for tests and debugging.

Call ``snapshot(ctx, summ)`` and ``check_invariants(ctx, summ)`` with a
:class:`~pairdom.solver.SolveContext` and one of its summaries.  No CLI
command imports this module, so a solve process never compiles it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .solver import (
    _CASE,
    _FC,
    _FH,
    _IC,
    _KC,
    _KF,
    _KH,
    _NR,
    _NV,
    _RH,
    _SC,
    _SH,
    _UH,
    _WF,
    _WR,
    _XF,
    _XR,
    NodeSummary,
    SolveContext,
)

__all__ = ["SummaryView", "check_invariants", "snapshot"]


@dataclass(frozen=True)
class SummaryView:
    """Readable snapshot of a node summary (testing and diagnostics)."""

    vertex_count: int
    restricted_count: int
    k: int
    s: int
    f: int
    full_pairs: tuple[tuple[int, int], ...]
    semi_pairs: tuple[tuple[int, int], ...]
    free_pairs: tuple[tuple[int, int], ...]
    unmatched_restricted: tuple[int, ...]
    unmatched_free: tuple[int, ...]
    isolated_count: int
    rf_witness: Optional[tuple[int, int]]
    exemplar_restricted: Optional[int]
    exemplar_free: Optional[int]
    case: str


# The walkers report labels.


def _walk_pool(ctx: SolveContext, head: int) -> list[int]:
    # Claimed vertices were consumed out of turn; a vertex sits in at most
    # one pool position, so membership is simply claimed[v] == 0.
    out = []
    nxt, claimed, lab = ctx.nxt, ctx.claimed, ctx.labels
    v = head
    while v >= 0:
        if not claimed[v]:
            out.append(lab[v])
        v = nxt[v]
    return out


def _walk_pairs(
    ctx: SolveContext, summ: NodeSummary, chain: int
) -> tuple[tuple[int, int], ...]:
    lab = ctx.labels
    us, vs = ctx._pair_ends(summ, chain)
    return tuple((lab[u], lab[v]) for u, v in zip(us, vs))


def snapshot(ctx: SolveContext, summ: NodeSummary) -> SummaryView:
    """Non-destructive readable view of a summary record of ``ctx``.

    A relink's result keeps its full pairs in a flat list off the arena;
    they are read from there and never written back, since a write-back
    would change what the next combine sees.
    """
    return SummaryView(
        vertex_count=summ[_NV],
        restricted_count=summ[_NR],
        k=summ[_KC],
        s=summ[_SC],
        f=summ[_FC],
        full_pairs=_walk_pairs(ctx, summ, _KH),
        semi_pairs=_walk_pairs(ctx, summ, _SH),
        free_pairs=_walk_pairs(ctx, summ, _FH),
        unmatched_restricted=tuple(_walk_pool(ctx, summ[_RH])),
        unmatched_free=tuple(_walk_pool(ctx, summ[_UH])),
        isolated_count=summ[_IC],
        rf_witness=(
            (ctx.labels[summ[_WR]], ctx.labels[summ[_WF]]) if summ[_WR] >= 0 else None
        ),
        exemplar_restricted=ctx.labels[summ[_XR]] if summ[_XR] >= 0 else None,
        exemplar_free=ctx.labels[summ[_XF]] if summ[_XF] >= 0 else None,
        case=summ[_CASE],
    )


def check_invariants(ctx: SolveContext, summ: NodeSummary) -> None:
    """Verify the counting identities of a summary of ``ctx`` (test support)."""
    if summ[_KF] is not None and summ[_KH] >= 0:
        raise AssertionError("full pairs both in a flat list and on the arena")
    view = snapshot(ctx, summ)
    k, s, f = view.k, view.s, view.f
    if (len(view.full_pairs), len(view.semi_pairs), len(view.free_pairs)) != (k, s, f):
        raise AssertionError("pair chain lengths disagree with counts")
    ur = len(view.unmatched_restricted)
    uf = len(view.unmatched_free)
    if view.restricted_count != 2 * k + s + ur:
        raise AssertionError("restricted count identity violated")
    if view.vertex_count != 2 * (k + s + f) + ur + uf:
        raise AssertionError("vertex count identity violated")
    if view.isolated_count > ur + uf:
        raise AssertionError("more isolated vertices than unmatched ones")
    flags = ctx.restricted.flags
    for u, v in view.semi_pairs:
        if not (flags[u] and not flags[v]):
            raise AssertionError("semi pair endpoint order violated")
