"""Explicit graphs: everything that needs an edge set.

A ``Graph`` holds dense integer vertices and sorted adjacency lists.  This
module owns it with the code that builds or reads one: the ``p``/``e`` text
format, the from-scratch validity and maximum-property checkers that the
solver, the oracle and the CLI are verified against, materialization of a
cotree, and recognition of a cograph (a cotree or an induced-P4 witness).
Checkers report; they do not raise on invalid solutions.

The solver and the tree checker never build an edge, so ``import pairdom``
loads this module on first use of one of its names, and the CLI only in the
commands that read a graph or build one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .cotree import JOIN, LEAF, UNION, Cotree, _built
from .graphs import (
    GraphError,
    MPDSolution,
    RestrictedSet,
    VerificationReport,
    _int_token,
    _verification_report,
)

__all__ = [
    "EdgeCapExceeded",
    "Graph",
    "P4Witness",
    "PropertyViolation",
    "build_graph",
    "check_maximum_properties",
    "format_graph_text",
    "is_dominating",
    "is_induced_p4",
    "is_matching",
    "materialize",
    "parse_graph_text",
    "recognize",
    "verify_solution",
]

DEFAULT_EDGE_CAP = 50_000_000


class EdgeCapExceeded(GraphError):
    """Materialization would build more than ``DEFAULT_EDGE_CAP`` edges."""


class P4Witness(NamedTuple):
    """Four vertices inducing a path a-b-c-d, certifying non-cographness."""

    a: int
    b: int
    c: int
    d: int


class Graph:
    """Undirected simple graph on vertices ``0 .. n-1``.

    ``adj[v]`` is the sorted list of neighbors of ``v``; ``m`` is the edge
    count (half the sum of adjacency lengths).  Instances are treated as
    immutable after construction and are safe to share between threads.

    Use :func:`build_graph` to construct from an edge list with validation;
    the constructor itself trusts its arguments (used by bulk builders).
    """

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int, adj: list[list[int]], m: int) -> None:
        self.n = n
        self.adj = adj
        self.m = m

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search on the sorted adjacency list."""
        if u >= self.n or v >= self.n or u < 0 or v < 0:
            return False
        row = self.adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(u, v)`` with ``u < v``, in lexicographic order."""
        out = []
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def isolated_vertices(self) -> list[int]:
        return [v for v in range(self.n) if not self.adj[v]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class PropertyViolation:
    """One failed necessary condition from :func:`check_maximum_properties`.

    ``rule`` names the condition, ``vertex`` is the unmatched restricted
    vertex it was checked for, ``pair`` the offending pair (when the rule
    involves one) and ``witness`` the offending neighbor (when one exists).
    """

    rule: str
    vertex: int
    pair: Optional[tuple[int, int]] = None
    witness: Optional[int] = None

    def __str__(self) -> str:
        parts = [f"{self.rule}: unmatched restricted {self.vertex}"]
        if self.pair is not None:
            parts.append(f"pair {self.pair[0]}-{self.pair[1]}")
        if self.witness is not None:
            parts.append(f"witness {self.witness}")
        return ", ".join(parts)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated graph from an edge list.

    Rejects (rather than silently dropping) endpoints out of range,
    self-loops and duplicate edges; the error message names the offending
    pair.

    >>> build_graph(2, [(0, 1)]).m
    1
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    m = 0
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint out of range 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) is not allowed")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
        m += 1
    for row in adj:
        row.sort()
    return Graph(n, adj, m)


def is_matching(graph: Graph, pairs: Sequence[tuple[int, int]]) -> bool:
    """True iff every pair is an edge of ``graph`` and no vertex repeats.

    Malformed pairs (out-of-range ids, self-pairs) simply yield ``False``;
    use :func:`verify_solution` for the reasons.
    """
    return verify_solution(graph, RestrictedSet(graph.n), pairs).is_matching


def is_dominating(graph: Graph, vertices: Iterable[int]) -> bool:
    """True iff every vertex outside the set has a neighbor inside it."""
    mark = bytearray(graph.n)
    for v in vertices:
        if 0 <= v < graph.n:
            mark[v] = 1
    adj = graph.adj
    for v in range(graph.n):
        if mark[v]:
            continue
        for w in adj[v]:
            if mark[w]:
                break
        else:
            return False
    return True


def _check_nonempty(graph: Graph) -> None:
    """The empty graph has no cotree, so every consumer that answers for a
    graph (``recognize``, and through it ``solve``, the oracle and
    ``verify_solution``) raises the same :class:`GraphError` for it."""
    if graph.n == 0:
        raise GraphError("the empty graph is not an instance: it has no cotree")


def verify_solution(
    graph: Graph,
    restricted: RestrictedSet,
    pairs: Sequence[tuple[int, int]],
) -> VerificationReport:
    """Check a claimed solution from scratch and report.

    ``valid`` means the pairs form a matching whose vertex set dominates the
    graph.  (Any matching is automatically a perfect matching of the subgraph
    induced by its own vertex set, so no separate perfect-matching test
    exists or is needed.)  Statistics are recomputed here; a certificate is
    attached when one of the two cheap canonicity proofs applies.
    ``restricted`` must be over ``graph.n`` vertices (``ValueError``
    otherwise).
    """
    _check_nonempty(graph)
    return _verification_report(
        graph.n,
        restricted,
        pairs,
        lambda pairs: [graph.has_edge(p[0], p[1]) for p in pairs],
        lambda mark: is_dominating(graph, compress(range(graph.n), mark)),
    )


def check_maximum_properties(
    graph: Graph,
    restricted: RestrictedSet,
    solution: MPDSolution | Sequence[tuple[int, int]],
) -> list[PropertyViolation]:
    """Check the four necessary conditions of a maximum solution.

    For every unmatched restricted vertex ``y`` of a solution with maximum
    matched number (on a connected graph) all of these must hold:

    1. ``free-pair-neighbor``: ``y`` is adjacent to neither endpoint of any
       free pair (else re-pairing would cover ``y``).
    2. ``uncovered-neighborhood``: every neighbor of ``y`` is matched
       (else ``y`` could simply be paired with it).
    3. ``partner-neighborhood``: if ``y`` is adjacent to one endpoint of a
       full or semi pair, the other endpoint has no unmatched neighbor
       besides ``y`` (else a two-pair exchange would cover ``y``).
    4. ``semi-restricted-neighbor``: ``y`` is not adjacent to the restricted
       endpoint of any semi pair (else stealing that partner covers ``y``).

    An empty result is necessary but not sufficient for maximality; it is
    used as a property check against solver output.  The solution must be
    valid and ``restricted`` must be over ``graph.n`` vertices
    (``ValueError`` otherwise); connectivity of ``graph`` is the caller's
    responsibility.
    """
    pairs: Sequence[tuple[int, int]]
    if isinstance(solution, MPDSolution):
        pairs = list(zip(solution._us, solution._vs))
    else:
        pairs = [(p[0], p[1]) for p in solution]

    report = verify_solution(graph, restricted, pairs)
    if not report.valid:
        raise ValueError(f"solution is not valid: {'; '.join(report.problems) or 'not dominating'}")

    n = graph.n
    matched = bytearray(n)
    for u, v in pairs:
        matched[u] = 1
        matched[v] = 1

    unmatched_restricted = [v for v in restricted.members() if not matched[v]]
    if not unmatched_restricted:
        return []

    # Per-vertex endpoint roles: the partner, and the pair's class code,
    # its number of restricted endpoints.
    flags = restricted.flags
    partner = [-1] * n
    code = bytearray(n)
    for u, v in pairs:
        partner[u] = v
        partner[v] = u
        code[u] = code[v] = flags[u] + flags[v]

    # For rule 3: per vertex, how many neighbors are unmatched, plus up to
    # two examples so the offending neighbor can be named even when one of
    # them is the probe vertex itself.
    out_count = [0] * n
    out_first = [-1] * n
    out_second = [-1] * n
    adj = graph.adj
    for v in range(n):
        cnt = 0
        first = second = -1
        for w in adj[v]:
            if not matched[w]:
                cnt += 1
                if first < 0:
                    first = w
                elif second < 0:
                    second = w
        out_count[v] = cnt
        out_first[v] = first
        out_second[v] = second

    violations: list[PropertyViolation] = []
    seen: set[tuple[str, int, int, int]] = set()

    def emit(rule: str, y: int, pair: Optional[tuple[int, int]], witness: Optional[int]) -> None:
        key = (rule, y, -1 if pair is None else min(pair), -1 if witness is None else witness)
        if key not in seen:
            seen.add(key)
            violations.append(PropertyViolation(rule, y, pair, witness))

    for y in unmatched_restricted:
        for w in adj[y]:
            if not matched[w]:
                emit("uncovered-neighborhood", y, None, w)
                continue
            c = code[w]
            p = (w, partner[w])
            if c == 0:
                emit("free-pair-neighbor", y, (min(p), max(p)), w)
                continue
            if c == 1 and flags[w]:
                emit("semi-restricted-neighbor", y, (min(p), max(p)), w)
            # Rule 3 applies to full and semi pairs alike: the partner of the
            # touched endpoint must have no unmatched neighbor other than y.
            other = partner[w]
            cnt = out_count[other]
            if cnt == 0:
                continue
            if cnt == 1 and out_first[other] == y:
                continue
            witness = out_first[other] if out_first[other] != y else out_second[other]
            emit("partner-neighborhood", y, (min(p), max(p)), witness)

    return violations


# ---------------------------------------------------------------------------
# Graph text format (shared with the CLI)
#
#   p <n> <m>          header
#   e <u> <v>          exactly m edge lines, 0-based vertex ids
#   # ...              comment lines, anywhere
# ---------------------------------------------------------------------------


def parse_graph_text(text: str) -> Graph:
    """Parse the ``p``/``e`` graph format; raises :class:`GraphError`."""
    header = False
    n = m_declared = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header:
                raise GraphError(f"line {lineno}: duplicate 'p' header")
            if len(fields) != 3:
                raise GraphError(f"line {lineno}: expected 'p <n> <m>'")
            try:
                n, m_declared = _int_token(fields[1]), _int_token(fields[2])
            except ValueError:
                raise GraphError(f"line {lineno}: non-integer in 'p' header") from None
            if n < 0 or m_declared < 0:
                raise GraphError(f"line {lineno}: negative count in 'p' header")
            header = True
        elif fields[0] == "e":
            if not header:
                raise GraphError(f"line {lineno}: 'e' line before 'p' header")
            if len(fields) != 3:
                raise GraphError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                edges.append((_int_token(fields[1]), _int_token(fields[2])))
            except ValueError:
                raise GraphError(f"line {lineno}: non-integer endpoint") from None
        else:
            raise GraphError(f"line {lineno}: unknown record {fields[0]!r}")
    if not header:
        raise GraphError("missing 'p <n> <m>' header")
    if len(edges) != m_declared:
        raise GraphError(f"header declares {m_declared} edges, found {len(edges)}")
    return build_graph(n, edges)


def format_graph_text(graph: Graph) -> str:
    lines = [f"p {graph.n} {graph.m}"]
    lines.extend(f"e {u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def materialize(tree: Cotree) -> Graph:
    """Expand the tree into an explicit graph.

    A join contributes the complete bipartite edge set between the leaf sets
    of its children; a union contributes nothing.  The edge count is checked
    against ``DEFAULT_EDGE_CAP`` before any adjacency row is allocated, so an
    accidental dense join fails fast instead of exhausting memory.
    """
    n = tree.leaf_count
    leaf_order = tree.leaf_labels()

    # Left-to-right leaf order puts every subtree's leaves in a contiguous
    # range, so each join is a cross product of two slices, and its side
    # sizes are the lengths of those ranges.  A join's right range starts
    # where the subtree finished last starts, its left range where the one
    # before that starts, and both end at the leaves seen so far.
    m = 0
    joins: list[tuple[int, int, int]] = []
    starts: list[int] = []  # range starts of finished subtrees awaiting a parent
    seen = 0
    for k in tree.kind:
        if k == LEAF:
            starts.append(seen)
            seen += 1
        else:
            mid = starts.pop()
            if k == JOIN:
                lo = starts[-1]
                m += (mid - lo) * (seen - mid)
                if m > DEFAULT_EDGE_CAP:
                    raise EdgeCapExceeded(
                        f"materialization needs more than {DEFAULT_EDGE_CAP} edges"
                    )
                joins.append((lo, mid, seen))

    adj: list[list[int]] = [[] for _ in range(n)]
    for lo, mid, hi in joins:
        left = leaf_order[lo:mid]
        right = leaf_order[mid:hi]
        for u in left:
            adj[u].extend(right)
        for v in right:
            adj[v].extend(left)
    for row in adj:
        row.sort()
    return Graph(n, adj, m)


def is_induced_p4(graph: Graph, witness: P4Witness) -> bool:
    """True iff the witness induces a path on four distinct vertices."""
    a, b, c, d = witness
    if len({a, b, c, d}) != 4:
        return False
    return (
        graph.has_edge(a, b)
        and graph.has_edge(b, c)
        and graph.has_edge(c, d)
        and not graph.has_edge(a, c)
        and not graph.has_edge(a, d)
        and not graph.has_edge(b, d)
    )


def _components(sub: list[int], adj: list[list[int]], active: bytearray) -> list[list[int]]:
    """Connected components of the subgraph induced by ``sub``.

    ``active`` must be 1 exactly on ``sub``; it is restored before return.
    Components come out sorted by smallest contained vertex.
    """
    comp_id = {}
    comps: list[list[int]] = []
    for start in sub:
        if start in comp_id:
            continue
        comp = [start]
        comp_id[start] = len(comps)
        queue = [start]
        while queue:
            x = queue.pop()
            for w in adj[x]:
                if active[w] and w not in comp_id:
                    comp_id[w] = len(comps)
                    comp.append(w)
                    queue.append(w)
        comps.append(comp)
    comps.sort(key=lambda c: min(c))
    return comps


def _co_components(sub: list[int], adjset: list[set[int]]) -> list[list[int]]:
    """Connected components of the *complement* of the induced subgraph.

    Runs breadth-first search over the complement without building it: from
    each frontier vertex, every still-unvisited vertex that is NOT a
    neighbor joins the component.  Scanning the unvisited pool charges each
    survivor to a real edge, so a level costs O(n + m).
    """
    unvisited = list(sub)
    comps: list[list[int]] = []
    while unvisited:
        seed = unvisited[0]
        comp = [seed]
        queue = [seed]
        unvisited = unvisited[1:]
        while queue:
            x = queue.pop()
            nbr = adjset[x]
            kept = []
            for u in unvisited:
                if u in nbr:
                    kept.append(u)
                else:
                    comp.append(u)
                    queue.append(u)
            unvisited = kept
        comps.append(comp)
    for c in comps:
        c.sort()
    comps.sort(key=lambda c: c[0])
    return comps


def _find_p4(sub: list[int], graph: Graph, adjset: list[set[int]]) -> P4Witness:
    """Extract an induced P4 from a connected, co-connected subset.

    Any induced path a-b-c-d shows up while scanning its middle edge (b, c):
    a lies in N(b)-N[c], d in N(c)-N[b], and a, d are non-adjacent.  A
    subset on which neither decomposition step applies always contains one.
    """
    in_sub = set(sub)
    adj = graph.adj
    for b in sub:
        for c in adj[b]:
            if c not in in_sub or c < b:
                continue
            side_a = [x for x in adj[b] if x in in_sub and x != c and x not in adjset[c]]
            side_d = [x for x in adj[c] if x in in_sub and x != b and x not in adjset[b]]
            for x in side_a:
                for y in side_d:
                    if x != y and y not in adjset[x]:
                        witness = P4Witness(x, b, c, y)
                        if not is_induced_p4(graph, witness):  # pragma: no cover
                            raise AssertionError("internal error: bad P4 extraction")
                        return witness
    raise AssertionError(  # pragma: no cover - unreachable on valid input
        "no P4 found in an undecomposable subset"
    )


def recognize(graph: Graph) -> Union[Cotree, P4Witness]:
    """Decompose ``graph`` into a cotree, or return an induced-P4 witness.

    Strategy: recursively, a disconnected (sub)graph is a union of its
    components; a co-disconnected one is a join of its co-components; a
    subset that is neither (possible only on >= 4 vertices) contains an
    induced P4, which is extracted and returned as the certificate.

    Worst case O(n * (n + m)).  The returned tree's materialization is
    edge-identical to ``graph``; multiway splits are binarized left-to-right
    in ascending order of smallest contained vertex, so the result is
    deterministic.
    """
    _check_nonempty(graph)
    n = graph.n
    adj = graph.adj
    adjset = [set(row) for row in adj]
    active = bytearray(n)

    # The nodes are stored in right-first preorder, each before its right
    # subtree and that before its left one, and reversed at the end into
    # left-first postorder.  A split into parts p0..pk is the left-fold
    # chain (..(p0 op p1) op ..) op pk, whose top node is stored at once;
    # the parts are explored last first, and each inner chain node waits on
    # the stack, as its kind, between its right operand and the rest of the
    # chain.  Subsets wait on the stack as lists.
    kind = bytearray()
    labels: list[int] = []
    stack: list[Union[list[int], int]] = [sorted(range(n))]
    while stack:
        sub = stack.pop()
        if type(sub) is int:
            kind.append(sub)
            labels.append(-1)
        elif len(sub) == 1:
            kind.append(LEAF)
            labels.append(sub[0])
        else:
            for v in sub:
                active[v] = 1
            parts = _components(sub, adj, active)
            op = UNION
            if len(parts) == 1:
                parts = _co_components(sub, adjset)
                op = JOIN
            if len(parts) == 1:
                return _find_p4(sub, graph, adjset)
            for v in sub:
                active[v] = 0
            kind.append(op)
            labels.append(-1)
            stack += parts[:2]
            for part in parts[2:]:
                stack += (op, part)
    kind.reverse()
    labels.reverse()
    return _built(kind, labels, n)
