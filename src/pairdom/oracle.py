"""Exact brute-force ground truth for matched-paired domination.

Works on arbitrary small graphs (not just cographs) and is the independent
reference everything else is differentially tested against.  The search
enumerates *matchings* rather than vertex subsets: for a fixed dominated
vertex set, different matchings of it can split into different semi/free pair
counts, so subset enumeration alone cannot rank solutions by free-pair count.

Enumeration is recursive include/exclude over a fixed edge order.
:func:`enumerate_dominating_matchings` yields every dominating matching;
:func:`oracle_canonical` runs one search over the same tree that prunes with
a lossless bound.  Everything here is pure: independent calls can run
concurrently, each search is single-threaded.  Both take the restricted set
over the graph's own vertices and raise ``ValueError`` for any other count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .adjacency import Graph, _check_nonempty
from .graphs import MPDSolution, NoSolutionError, RestrictedSet, _check_restricted

__all__ = [
    "OracleCapExceeded",
    "OracleResult",
    "enumerate_dominating_matchings",
    "oracle_canonical",
    "oracle_paired_domination_number",
]

DEFAULT_MAX_VERTICES = 16


class OracleCapExceeded(ValueError):
    """Instance is larger than the configured exhaustive-search cap."""


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum: maximum matched number, then minimum free pairs.

    ``witness`` is one solution attaining ``(beta, f_min)``; it verifies
    valid with exactly these statistics.  ``count_explored`` counts the
    dominating matchings the search reached past its bound, at most all of
    them -- a diagnostic, not a contract.
    """

    beta: int
    f_min: int
    witness: MPDSolution
    count_explored: int


def _check_cap(n: int, max_vertices: int) -> None:
    if n > max_vertices:
        raise OracleCapExceeded(
            f"graph has {n} vertices, exhaustive cap is {max_vertices}"
        )


def _closed_neighborhood_masks(graph: Graph) -> list[int]:
    masks = []
    for v in range(graph.n):
        m = 1 << v
        for w in graph.adj[v]:
            m |= 1 << w
        masks.append(m)
    return masks


def enumerate_dominating_matchings(
    graph: Graph,
    restricted: RestrictedSet,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> Iterator[tuple[tuple[tuple[int, int], ...], int, int, int, int]]:
    """Yield every dominating matching of ``graph`` with its statistics.

    Every matching (including non-maximal ones, including the empty one on
    the empty graph) is generated exactly once by include/exclude decisions
    over the edges in lexicographic order; those whose vertex set dominates
    the graph are yielded as ``(pairs, k, s, f, matched_number)``.  The
    cap and the restricted set are checked at the call, before the first
    matching.
    """
    _check_cap(graph.n, max_vertices)
    _check_restricted(restricted, graph.n)
    edges = graph.edges()
    m = len(edges)
    nbr = _closed_neighborhood_masks(graph)
    full_mask = (1 << graph.n) - 1
    rflags = restricted.flags

    def walk(
        i: int, used: int, dom: int, pairs: tuple[tuple[int, int], ...], k: int, s: int, f: int
    ) -> Iterator[tuple[tuple[tuple[int, int], ...], int, int, int, int]]:
        if i == m:
            if dom == full_mask:
                yield pairs, k, s, f, 2 * k + s
            return
        u, v = edges[i]
        bits = (1 << u) | (1 << v)
        if not used & bits:
            hits = rflags[u] + rflags[v]
            yield from walk(
                i + 1,
                used | bits,
                dom | nbr[u] | nbr[v],
                pairs + ((u, v),),
                k + (hits == 2),
                s + (hits == 1),
                f + (hits == 0),
            )
        yield from walk(i + 1, used, dom, pairs, k, s, f)

    return walk(0, 0, 0, (), 0, 0, 0)


def oracle_canonical(
    graph: Graph,
    restricted: RestrictedSet,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> OracleResult:
    """Exhaustively find ``(beta, f_min)`` and one witness solution.

    The objective is lexicographic: maximize the matched number, then
    minimize the number of free pairs.  The search walks the matchings of
    :func:`enumerate_dominating_matchings` and discards states whose best
    reachable objective cannot strictly beat the incumbent; since the
    matched number can only grow to ``matched_now + |unmatched restricted|``
    and the free count never shrinks, this is lossless.

    Raises :class:`NoSolutionError` when no dominating matching exists
    (exactly the graphs with isolated vertices, and the 1-vertex graph),
    and :class:`GraphError` for the empty graph, as ``recognize`` does.
    """
    _check_nonempty(graph)
    _check_cap(graph.n, max_vertices)
    _check_restricted(restricted, graph.n)
    edges = graph.edges()
    m = len(edges)
    nbr = _closed_neighborhood_masks(graph)
    full_mask = (1 << graph.n) - 1
    rflags = restricted.flags

    rmask = sum(1 << v for v in restricted.members())

    # suffix_cover[i]: vertices touched by some edge with index >= i.  A
    # restricted vertex can still be matched from state i only if it is
    # unused and appears in suffix_cover[i]; counting those gives a valid
    # upper bound on the final matched number.
    suffix_cover = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        u, v = edges[i]
        suffix_cover[i] = suffix_cover[i + 1] | (1 << u) | (1 << v)

    # Incumbent: (beta, f) lexicographic, plus the witness pair list.
    best_beta = -1
    best_f = 0
    best_pairs: list[tuple[int, int]] = []
    explored = 0
    current: list[tuple[int, int]] = []

    def search(i: int, used: int, dom: int, matched: int, f: int) -> None:
        nonlocal best_beta, best_f, best_pairs, explored
        if best_beta >= 0:
            potential = matched + (rmask & ~used & suffix_cover[i]).bit_count()
            if potential < best_beta or (potential == best_beta and f >= best_f):
                return
        if i == m:
            # The bound is exact here (suffix_cover[m] is empty), so a
            # matching that gets this far beats the incumbent.
            if dom == full_mask:
                explored += 1
                best_beta = matched
                best_f = f
                best_pairs = current.copy()
            return
        u, v = edges[i]
        bits = (1 << u) | (1 << v)
        if not used & bits:
            hits = rflags[u] + rflags[v]
            current.append((u, v))
            search(i + 1, used | bits, dom | nbr[u] | nbr[v], matched + hits, f + (hits == 0))
            current.pop()
        search(i + 1, used, dom, matched, f)

    search(0, 0, 0, 0, 0)
    if best_beta < 0:
        raise NoSolutionError(
            "no dominating matching exists",
            isolated=graph.isolated_vertices(),
        )
    return OracleResult(
        beta=best_beta,
        f_min=best_f,
        witness=MPDSolution.from_edges(best_pairs, restricted),
        count_explored=explored,
    )


def oracle_paired_domination_number(
    graph: Graph,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> int:
    """Minimum vertex count of a dominating matching (always even).

    With an empty restricted set the canonical objective degenerates to
    "fewest pairs overall", so this is ``2 * f_min`` of that instance.
    """
    result = oracle_canonical(graph, RestrictedSet.empty(graph.n), max_vertices=max_vertices)
    return 2 * result.f_min
