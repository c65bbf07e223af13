"""Core graph types and checkers for matched-paired domination.

The objects of interest are *matched-paired-dominating sets*: matchings whose
matched vertex set dominates the whole graph.  Relative to a designated set of
*restricted* vertices, every pair in such a matching is classified as

* ``full`` -- both endpoints restricted,
* ``semi`` -- exactly one endpoint restricted,
* ``free`` -- neither endpoint restricted.

A solution with ``k`` full, ``s`` semi and ``f`` free pairs covers ``2k + s``
restricted vertices; that count is its *matched number*.  The optimization
target elsewhere in this package is a solution with maximum matched number
and, among those, the fewest free pairs (a *canonical* solution).

This module owns the ``Graph`` representation (dense integer vertices,
sorted adjacency lists), the pair taxonomy, and all from-scratch validity and
property checkers that the solver, the oracle and the CLI are verified
against.  Checkers report; they do not raise on invalid solutions.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

__all__ = [
    "EdgeClass",
    "Certificate",
    "Graph",
    "GraphError",
    "NoSolutionError",
    "RestrictedSet",
    "PairedEdge",
    "MPDSolution",
    "VerificationReport",
    "PropertyViolation",
    "build_graph",
    "classify_edge",
    "is_matching",
    "is_dominating",
    "verify_solution",
    "check_maximum_properties",
    "parse_graph_text",
    "format_graph_text",
    "parse_restricted_text",
    "format_restricted_text",
]


class GraphError(ValueError):
    """Malformed graph input (bad endpoint, self-loop, duplicate edge, ...)."""


class NoSolutionError(ValueError):
    """No matched-paired-dominating set exists.

    Raised only for graphs with isolated vertices (an isolated vertex can
    neither be matched nor dominated by a neighbor); every other graph has a
    solution.  ``isolated`` lists the offending vertices when known.
    """

    def __init__(self, message: str, isolated: Iterable[int] = ()) -> None:
        super().__init__(message)
        self.isolated: tuple[int, ...] = tuple(isolated)


class EdgeClass(enum.Enum):
    """Classification of a matched pair against the restricted set."""

    FULL = "full"
    SEMI = "semi"
    FREE = "free"


class Certificate(enum.Enum):
    """Cheap canonicity certificates computed by :func:`verify_solution`
    and :func:`~pairdom.cotree.verify_on_tree`.

    ``ALL_RESTRICTED_TIGHT``: every restricted vertex is matched and the
    solution uses the fewest pairs that could possibly achieve that
    (``ceil(|R|/2)``), so no solution can match more restricted vertices or
    use fewer free pairs.

    ``ODD_ALL_BUT_ONE``: every vertex of the graph is restricted, the order
    is odd, and the solution matches all but one vertex with
    ``floor(|R|/2)`` pairs -- the best any matching can do on an odd set.

    Absence of a certificate says nothing; these are opportunistic proofs.
    """

    NONE = "none"
    ALL_RESTRICTED_TIGHT = "all-restricted-tight"
    ODD_ALL_BUT_ONE = "odd-all-but-one"


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


class RestrictedSet:
    """A subset of the vertices with O(1) membership.

    The "restricted" vertices are the ones a solution should cover
    preferentially; all others are "free".
    """

    __slots__ = ("n", "flags", "count")

    def __init__(self, n: int, members: Iterable[int] = ()) -> None:
        flags = bytearray(n)
        count = 0
        for v in members:
            if not 0 <= v < n:
                raise GraphError(f"restricted vertex {v} out of range 0..{n - 1}")
            if not flags[v]:
                flags[v] = 1
                count += 1
        self.n = n
        self.flags = flags
        self.count = count

    @classmethod
    def empty(cls, n: int) -> "RestrictedSet":
        return cls(n)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.flags[v])

    def __len__(self) -> int:
        return self.count

    def members(self) -> list[int]:
        flags = self.flags
        return [v for v in range(self.n) if flags[v]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RestrictedSet(n={self.n}, members={self.members()})"


class PairedEdge(NamedTuple):
    """One matched pair; endpoints are unordered, ``cls`` is derived from R.

    By convention builders put the restricted endpoint first in semi pairs,
    but no consumer may rely on endpoint order.
    """

    u: int
    v: int
    cls: EdgeClass


@dataclass(frozen=True)
class MPDSolution:
    """A matched-paired-dominating set plus its pair-class statistics.

    Invariants (enforced by :func:`verify_solution`, not the constructor):
    the pairs are vertex-disjoint edges of the associated graph,
    ``len(pairs) == k + s + f`` and ``matched_number == 2*k + s``.
    ``case_trace`` is a diagnostic tag naming the rule that produced the
    root combine inside the solver, when the solver produced this object.
    """

    pairs: tuple[PairedEdge, ...]
    k: int
    s: int
    f: int
    matched_number: int
    case_trace: Optional[str] = None

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], restricted: RestrictedSet
    ) -> "MPDSolution":
        """Classify ``edges`` against ``restricted`` and count from scratch."""
        pairs = []
        k = s = f = 0
        for u, v in edges:
            c = classify_edge((u, v), restricted)
            if c is EdgeClass.FULL:
                k += 1
            elif c is EdgeClass.SEMI:
                s += 1
                if v in restricted and u not in restricted:
                    u, v = v, u
            else:
                f += 1
            pairs.append(PairedEdge(u, v, c))
        return cls(tuple(pairs), k, s, f, 2 * k + s)

    def vertex_set(self) -> set[int]:
        out: set[int] = set()
        for p in self.pairs:
            out.add(p.u)
            out.add(p.v)
        return out


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of :func:`verify_solution` and
    :func:`~pairdom.cotree.verify_on_tree`; invalidity is data, not an error.

    ``k``, ``s``, ``f`` and ``matched_number`` are recomputed from scratch,
    never copied from the solution under test.  ``problems`` holds short
    machine-readable reasons (``not-an-edge 0 2``, ``vertex-reused 1``, ...)
    for every matching violation found.
    """

    is_matching: bool
    is_dominating: bool
    valid: bool
    k: int
    s: int
    f: int
    matched_number: int
    certificate: Certificate
    problems: tuple[str, ...] = ()


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


def classify_edge(edge: tuple[int, int], restricted: RestrictedSet) -> EdgeClass:
    """Full/semi/free classification of a pair; symmetric in the endpoints."""
    u, v = edge
    hits = (u in restricted) + (v in restricted)
    if hits == 2:
        return EdgeClass.FULL
    if hits == 1:
        return EdgeClass.SEMI
    return EdgeClass.FREE


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
    """
    return _verification_report(
        graph.n,
        restricted,
        pairs,
        lambda candidates: [graph.has_edge(u, v) for u, v in candidates],
        lambda mark: is_dominating(graph, compress(range(graph.n), mark)),
    )


def _verification_report(
    n: int,
    restricted: RestrictedSet,
    pairs: Sequence[tuple[int, int]],
    are_edges: Callable[[list[tuple[int, int]]], Sequence[bool]],
    dominates: Callable[[bytearray], bool],
) -> VerificationReport:
    """The report of :func:`verify_solution` on an ``n``-vertex graph that
    is known only through two answers, each asked once.  ``are_edges``
    gets the pairs of two distinct in-range vertices in input order and
    answers for each whether it is an edge; ``dominates`` gets the 0/1
    flags of the vertices the in-range pairs touch.  One loop over the
    pairs then finds every matching problem, in input order, and the
    counts."""
    candidates = [
        (p[0], p[1]) for p in pairs if 0 <= p[0] < n and 0 <= p[1] < n and p[0] != p[1]
    ]
    answers = iter(are_edges(candidates))
    problems = []
    used = bytearray(n)  # the vertices of the candidates so far
    mark = bytearray(n)  # the vertices of the in-range pairs, self-pairs too
    # A vertex beyond a smaller restricted set is free, as ``in`` says.
    flags = restricted.flags.ljust(n, b"\0")
    counts = [0, 0, 0]  # in-range pairs by restricted endpoints: free, semi, full
    for p in pairs:
        u, v = p[0], p[1]
        if not (0 <= u < n and 0 <= v < n):
            problems.append(f"bad-vertex {u} {v}")
            continue
        mark[u] = mark[v] = 1
        counts[flags[u] + flags[v]] += 1
        if u == v:
            problems.append(f"self-pair {u}")
            continue
        if not next(answers):
            problems.append(f"not-an-edge {min(u, v)} {max(u, v)}")
        for x in (u, v):
            if used[x]:
                problems.append(f"vertex-reused {x}")
            used[x] = 1
    f, s, k = counts
    matching_ok = not problems

    dominating_ok = dominates(mark)
    valid = matching_ok and dominating_ok
    matched = 2 * k + s if matching_ok else sum(compress(flags, mark))

    certificate = Certificate.NONE
    if valid:
        r = len(restricted)
        npairs = len(pairs)
        if matched == r and npairs == (r + 1) // 2:
            certificate = Certificate.ALL_RESTRICTED_TIGHT
        elif n == r and r % 2 == 1 and matched == r - 1 and npairs == r // 2:
            certificate = Certificate.ODD_ALL_BUT_ONE

    return VerificationReport(
        is_matching=matching_ok,
        is_dominating=dominating_ok,
        valid=valid,
        k=k,
        s=s,
        f=f,
        matched_number=matched,
        certificate=certificate,
        problems=tuple(problems),
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
    valid (``ValueError`` otherwise); connectivity of ``graph`` is the
    caller's responsibility.
    """
    pairs: Sequence[tuple[int, int]]
    if isinstance(solution, MPDSolution):
        pairs = [(p.u, p.v) for p in solution.pairs]
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

    # Per-vertex endpoint roles.
    partner = [-1] * n
    pair_cls: dict[int, EdgeClass] = {}
    for u, v in pairs:
        partner[u] = v
        partner[v] = u
        c = classify_edge((u, v), restricted)
        pair_cls[u] = c
        pair_cls[v] = c

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
            c = pair_cls[w]
            p = (w, partner[w])
            if c is EdgeClass.FREE:
                emit("free-pair-neighbor", y, (min(p), max(p)), w)
                continue
            if c is EdgeClass.SEMI and w in restricted:
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
# Text format (shared with the CLI)
#
#   p <n> <m>          header
#   e <u> <v>          exactly m edge lines, 0-based vertex ids
#   # ...              comment lines, anywhere
# ---------------------------------------------------------------------------


def parse_graph_text(text: str) -> Graph:
    """Parse the ``p``/``e`` graph format; raises :class:`GraphError`."""
    n = -1
    m_declared = -1
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n >= 0:
                raise GraphError(f"line {lineno}: duplicate 'p' header")
            if len(fields) != 3:
                raise GraphError(f"line {lineno}: expected 'p <n> <m>'")
            try:
                n, m_declared = _int_token(fields[1]), _int_token(fields[2])
            except ValueError:
                raise GraphError(f"line {lineno}: non-integer in 'p' header") from None
        elif fields[0] == "e":
            if n < 0:
                raise GraphError(f"line {lineno}: 'e' line before 'p' header")
            if len(fields) != 3:
                raise GraphError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                edges.append((_int_token(fields[1]), _int_token(fields[2])))
            except ValueError:
                raise GraphError(f"line {lineno}: non-integer endpoint") from None
        else:
            raise GraphError(f"line {lineno}: unknown record {fields[0]!r}")
    if n < 0:
        raise GraphError("missing 'p <n> <m>' header")
    if len(edges) != m_declared:
        raise GraphError(f"header declares {m_declared} edges, found {len(edges)}")
    return build_graph(n, edges)


def format_graph_text(graph: Graph) -> str:
    lines = [f"p {graph.n} {graph.m}"]
    lines.extend(f"e {u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def parse_restricted_text(text: str, n: int) -> RestrictedSet:
    """Whitespace-separated vertex ids, each a run of ASCII digits with an
    optional leading '-'; an empty file is the empty set."""
    tokens = text.split()
    # Over the characters 0-9 and '-', int() takes a token exactly when
    # _int_token does, so such a text converts in one map.
    try:
        ids = list(map(int, tokens)) if _ID_TEXT.fullmatch(text) else None
    except ValueError:  # '1-2', '--1', or beyond int()'s digit limit
        ids = None
    if ids is None:
        ids = []
        for tok in tokens:
            try:
                ids.append(_int_token(tok))
            except ValueError:
                raise GraphError(f"restricted set: non-integer token {tok!r}") from None
    return RestrictedSet(n, ids)


_ID_TEXT = re.compile(r"[0-9\s-]*")
_INT_TOKEN = re.compile(r"-?[0-9]+")


def _int_token(tok: str) -> int:
    """The integer a number token spells: ASCII digits with an optional
    leading '-', the one rule of every reader of the text formats.  Raises
    ``ValueError`` otherwise, where bare ``int()`` would also take '1_2',
    '+3' or non-ASCII digits."""
    if not _INT_TOKEN.fullmatch(tok):
        raise ValueError(f"not a number token: {tok!r}")
    return int(tok)


def format_restricted_text(restricted: RestrictedSet) -> str:
    members = restricted.members()
    return (" ".join(str(v) for v in members)) + ("\n" if members else "")
