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

This module owns what a solve or a tree check needs without an edge set:
the restricted set, the pair taxonomy, the solution and report types, the
report core that both verifiers share, and the restricted-set text format.
The explicit ``Graph``, its checkers and its text format are in
:mod:`pairdom.adjacency`.
"""

from __future__ import annotations

import enum
import re
from collections import deque
from itertools import chain, compress, islice, repeat
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

__all__ = [
    "EdgeClass",
    "Certificate",
    "GraphError",
    "NoSolutionError",
    "RestrictedSet",
    "PairedEdge",
    "MPDSolution",
    "VerificationReport",
    "classify_edge",
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
    """Cheap canonicity certificates computed by
    :func:`~pairdom.adjacency.verify_solution` and
    :func:`~pairdom.cotree.verify_on_tree`.

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


class MPDSolution:
    """A matched-paired-dominating set plus its pair-class statistics.

    Invariants (enforced by :func:`~pairdom.adjacency.verify_solution`, not
    the constructor):
    the pairs are vertex-disjoint edges of the associated graph,
    ``len(pairs) == k + s + f`` and ``matched_number == 2*k + s``.
    ``case_trace`` is a diagnostic tag naming the rule that produced the
    root combine inside the solver, when the solver produced this object.

    Immutable, and compared and hashed by those six fields.  A solver-built
    solution keeps its pairs as two label columns, full then semi then free
    pairs, so ``k``, ``s`` and ``f`` are its class column; ``pairs`` builds
    the :class:`PairedEdge` tuple on its first read and keeps it.
    """

    __slots__ = ("_pairs", "_us", "_vs", "k", "s", "f", "matched_number", "case_trace")

    def __init__(
        self,
        pairs: tuple[PairedEdge, ...],
        k: int,
        s: int,
        f: int,
        matched_number: int,
        case_trace: Optional[str] = None,
    ) -> None:
        self._fill(pairs, None, None, k, s, f, matched_number, case_trace)

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _of_columns(
        cls, us: list[int], vs: list[int], k: int, s: int, f: int, case_trace: Optional[str]
    ) -> "MPDSolution":
        """The solution whose i-th pair is ``(us[i], vs[i])``: the first
        ``k`` full, the next ``s`` semi and the last ``f`` free."""
        self = cls.__new__(cls)
        self._fill(None, us, vs, k, s, f, 2 * k + s, case_trace)
        return self

    @property
    def pairs(self) -> tuple[PairedEdge, ...]:
        if self._pairs is None:
            # PairedEdge(u, v, cls) is tuple.__new__(PairedEdge, (u, v, cls));
            # mapping that directly builds the rows without a Python call each.
            rows = zip(*self._columns())
            object.__setattr__(self, "_pairs", tuple(map(tuple.__new__, repeat(PairedEdge), rows)))
        return self._pairs

    def _columns(self) -> tuple[Sequence[int], Sequence[int], Iterable[EdgeClass]]:
        """The u endpoints, the v endpoints and the classes, row by row;
        derived from ``pairs`` for a solution built from them."""
        if self._us is None:
            pairs = self._pairs
            return [p[0] for p in pairs], [p[1] for p in pairs], [p[2] for p in pairs]
        classes = chain(
            repeat(EdgeClass.FULL, self.k), repeat(EdgeClass.SEMI, self.s), repeat(EdgeClass.FREE, self.f)
        )
        return self._us, self._vs, classes

    _FIELDS = ("pairs", "k", "s", "f", "matched_number", "case_trace")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._FIELDS, self._fields()))
        return f"MPDSolution({fields})"

    def __reduce__(self):
        return (MPDSolution, self._fields())

    # ``dataclasses`` is imported only to raise: no solve or verify process
    # loads it otherwise.
    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

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
        us, vs, _ = self._columns()
        out = set(us)
        out.update(vs)
        return out


class VerificationReport(NamedTuple):
    """Outcome of :func:`~pairdom.adjacency.verify_solution` and
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


def classify_edge(edge: tuple[int, int], restricted: RestrictedSet) -> EdgeClass:
    """Full/semi/free classification of a pair; symmetric in the endpoints."""
    u, v = edge
    hits = (u in restricted) + (v in restricted)
    if hits == 2:
        return EdgeClass.FULL
    if hits == 1:
        return EdgeClass.SEMI
    return EdgeClass.FREE


def _check_restricted(restricted: RestrictedSet, n: int) -> None:
    """Every consumer of a restricted set takes it over the graph's own
    ``n`` vertices, and raises ``ValueError`` for any other count."""
    if restricted.n != n:
        raise ValueError(f"restricted set is over {restricted.n} vertices, graph has {n}")


def _verification_report(
    n: int,
    restricted: RestrictedSet,
    pairs: Sequence[tuple[int, int]],
    are_edges: Callable[[list[tuple[int, int]]], Sequence[bool]],
    dominates: Callable[[bytearray], bool],
) -> VerificationReport:
    """The report of :func:`~pairdom.adjacency.verify_solution` on an
    ``n``-vertex graph that is known only through two answers, each asked
    once.  ``are_edges``
    gets the pairs of two distinct in-range vertices in input order and
    answers for each whether it is an edge; ``dominates`` gets the 0/1
    flags of the vertices the in-range pairs touch.  One loop over the
    pairs then finds every matching problem, in input order, and the
    counts."""
    _check_restricted(restricted, n)
    candidates = [
        (p[0], p[1]) for p in pairs if 0 <= p[0] < n and 0 <= p[1] < n and p[0] != p[1]
    ]
    answers = iter(are_edges(candidates))
    problems = []
    used = bytearray(n)  # the vertices of the candidates so far
    mark = bytearray(n)  # the vertices of the in-range pairs, self-pairs too
    flags = restricted.flags
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


def parse_restricted_text(text: str, n: int) -> RestrictedSet:
    """Whitespace-separated vertex ids, each a run of ASCII digits with an
    optional leading '-'; an empty file is the empty set.

    The text is read one chunk at a time, each cut just after a whitespace
    character, so no token spans two chunks and only one chunk's tokens are
    alive.  Over the characters 0-9 and '-', int() takes a token exactly
    when _int_token does, so such a chunk converts in one map and, once its
    ids are in range, marks them in one more.  A chunk that fails either
    test means the text is malformed, and the whole text is read again
    token by token to name the first fault."""
    restricted = RestrictedSet(n)
    flags = restricted.flags
    length = len(text)
    end = 0
    while end < length:
        pos = end
        space = _SPACE_CHAR.search(text, pos + _CHUNK)
        end = space.end() if space else length
        chunk = text[pos:end]
        try:
            ids = list(map(int, chunk.split())) if _ID_TEXT.fullmatch(chunk) else None
        except ValueError:  # '1-2', '--1', or beyond int()'s digit limit
            ids = None
        if ids is None or ids and (min(ids) < 0 or max(ids) >= n):
            return RestrictedSet(n, _restricted_ids(text))
        deque(map(flags.__setitem__, ids, repeat(1)), 0)  # runs the map out
    restricted.count = flags.count(1)
    return restricted


def _restricted_ids(text: str) -> list[int]:
    """The ids of a restricted-set text in order, token by token; raises
    :class:`GraphError` naming the first token that is not a number."""
    ids = []
    for tok in text.split():
        try:
            ids.append(_int_token(tok))
        except ValueError:
            raise GraphError(f"restricted set: non-integer token {tok!r}") from None
    return ids


_ID_TEXT = re.compile(r"[0-9\s-]*")
_SPACE_CHAR = re.compile(r"\s")
_INT_TOKEN = re.compile(r"-?[0-9]+")
# Characters per chunk of the restricted-set reader, and ids per chunk of
# its writer.
_CHUNK = 1 << 16


def _int_token(tok: str) -> int:
    """The integer a number token spells: ASCII digits with an optional
    leading '-', the one rule of every reader of the text formats.  Raises
    ``ValueError`` otherwise, where bare ``int()`` would also take '1_2',
    '+3' or non-ASCII digits."""
    if not _INT_TOKEN.fullmatch(tok):
        raise ValueError(f"not a number token: {tok!r}")
    return int(tok)


def format_restricted_text(restricted: RestrictedSet) -> str:
    """The members on one line, joined one chunk of ids at a time, so no
    list of every member's string is built."""
    ids = map(str, compress(range(restricted.n), restricted.flags))
    parts = []
    while part := " ".join(islice(ids, _CHUNK)):
        parts.append(part)
    if parts:
        parts[-1] += "\n"
    return " ".join(parts)
