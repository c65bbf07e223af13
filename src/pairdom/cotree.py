"""Decomposition trees for complement-reducible graphs.

A cograph is built from single vertices by two operations: *union* (disjoint
union, no new edges) and *join* (disjoint union plus every cross edge).  The
build is recorded in a rooted strictly-binary tree whose leaves are the
vertices and whose internal nodes carry the operation; materializing the tree
reproduces the graph.  Equivalently, cographs are exactly the graphs with no
induced path on four vertices.

The tree is stored as a flat arena (parallel arrays) rather than node objects
so million-leaf instances stay cheap to traverse; everything that walks it is
iterative, never recursive.  This module holds the tree, its text format
and the solution check on the tree, none of which builds an edge: what
``pairdom solve --cotree`` and ``verify --cotree`` run.  The generators and
shape builders are in :mod:`pairdom.shapes`; materialization and
recognition, which need the explicit graph, are in
:mod:`pairdom.adjacency`.
"""

from __future__ import annotations

import re
from itertools import compress, islice
from operator import length_hint, not_
from typing import Optional, Sequence

from .graphs import RestrictedSet, VerificationReport, _verification_report

__all__ = [
    "LEAF",
    "UNION",
    "JOIN",
    "Cotree",
    "CotreeParseError",
    "parse_cotree",
    "serialize_cotree",
    "verify_on_tree",
]

# Node kinds.  ``a`` is the only store of the leaf labels; a builder stores
# -1 in ``a`` at internal nodes and no ``b``, as the kinds in postorder fix
# every child index (see :class:`Cotree`).
LEAF = 0
UNION = 1
JOIN = 2


class CotreeParseError(ValueError):
    """Syntax or leaf-labeling error; ``position`` is a character offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Cotree:
    """Rooted strictly-binary union/join tree over leaves ``0..leaf_count-1``.

    Every tree is stored in the postfix form: ``kind`` in left-first
    postorder (each subtree a contiguous index range ending at its root, the
    left one first, so ``root`` is the last index), and in ``a`` the leaf
    labels with -1 at every internal node.  Every tree stores ``kind`` as a
    ``bytearray``, one byte per node.  The kinds fix the shape, so the first
    read of ``a`` or ``b`` derives the child indices: ``a[i]``/``b[i]`` are
    then the children of internal node ``i``, and ``b[i]`` is -1 at a leaf.
    No walker in the package reads them; all read :meth:`leaf_labels` and
    the kinds.  ``a`` is the only store of the leaf labels, so writing
    ``a[i]`` at a leaf relabels it for every reader.  Instances are
    otherwise immutable by convention after construction.

    A tree built by hand comes in as child arrays, in any node order: the
    constructor checks the arena once, raising ``ValueError`` unless it is a
    tree over exactly those leaves, and copies it into the postfix form by
    :func:`_postfix`; the caller's lists are not touched.  ``b`` is
    required, and ``None`` raises ``TypeError``.  The package's builders
    store their postfix through :func:`_built`, unchecked.
    """

    __slots__ = ("kind", "_a", "_b", "root", "leaf_count")

    def __init__(
        self, kind: Sequence[int], a: Sequence[int], b: Sequence[int], root: int, leaf_count: int
    ) -> None:
        self.kind, self._a = _postfix(kind, a, b, root, leaf_count)
        self._b: Optional[list[int]] = None
        self.root = len(self.kind) - 1
        self.leaf_count = leaf_count

    @property
    def a(self) -> list[int]:
        if self._b is None:
            self._derive()
        return self._a

    @property
    def b(self) -> list[int]:
        if self._b is None:
            self._derive()
        return self._b  # type: ignore[return-value]

    def _derive(self) -> None:
        """Fill ``a``'s internal entries and build ``b``: one stack pass over
        the kinds.  In left-first postorder a node's right child is the node
        just before it, and its left child is the subtree finished before
        that one."""
        a = self._a
        b = [-1] * len(a)
        done: list[int] = []  # roots of finished subtrees awaiting a parent
        push, pop = done.append, done.pop
        for i, k in enumerate(self.kind):
            if k != LEAF:
                pop()
                a[i] = pop()
                b[i] = i - 1
            push(i)
        self._b = b

    def leaf_labels(self) -> list[int]:
        """The leaf labels left to right, read off ``a`` without deriving
        any child index."""
        return list(compress(self._a, map(not_, self.kind)))

    def postorder(self) -> list[int]:
        """Node indices, children before parents, left subtree first: the
        index order itself.  Only perfbench's traced ``cotree.postorder``
        span calls it."""
        return list(range(len(self.kind)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cotree(leaves={self.leaf_count}, nodes={len(self.kind)})"


def _postfix(
    kind: Sequence[int], a: Sequence[int], b: Sequence[int], root: int, leaf_count: int
) -> tuple[bytearray, list[int]]:
    """The kinds and leaf labels (-1 at internal nodes) of a child-array
    arena, in left-first postorder; raises ``ValueError`` unless every node
    is reached from ``root`` exactly once through in-range children, every
    kind is LEAF, UNION or JOIN, no leaf has a right child, no leaf label
    is out of ``0..leaf_count-1`` or repeated, and the arena holds
    ``2 * leaf_count - 1`` nodes.  A node reached twice ends the walk, so a
    cycle cannot loop."""
    nodes = len(kind)
    if not (len(a) == len(b) == nodes == 2 * leaf_count - 1 and 0 <= root < nodes):
        raise ValueError(
            f"arena of {nodes}/{len(a)}/{len(b)} nodes rooted at {root} "
            f"cannot hold {leaf_count} leaves"
        )
    # Node, right subtree, left subtree; reversed, left-first postorder.
    out_kind = bytearray()
    out_a: list[int] = []
    seen = bytearray(nodes)
    labelled = bytearray(leaf_count)
    stack = [root]
    push, pop = stack.append, stack.pop
    while stack:
        i = pop()
        if seen[i]:
            raise ValueError(f"node {i} is reached twice from the root")
        seen[i] = 1
        k = kind[i]
        if k == LEAF:
            if b[i] != -1:
                raise ValueError(f"leaf node {i} has a right child")
            x = a[i]
            if not 0 <= x < leaf_count or labelled[x]:
                raise ValueError(
                    f"leaf node {i} has label {x}: out of 0..{leaf_count - 1} or repeated"
                )
            labelled[x] = 1
            out_kind.append(LEAF)
            out_a.append(x)
        elif k == JOIN or k == UNION:
            out_kind.append(JOIN if k == JOIN else UNION)
            out_a.append(-1)
            for c in (a[i], b[i]):
                if not 0 <= c < nodes:
                    raise ValueError(f"node {i} has dangling child {c}")
                push(c)
        else:
            raise ValueError(f"node {i} has kind {k!r}, not LEAF, UNION or JOIN")
    if len(out_kind) != nodes:
        raise ValueError("arena contains nodes unreachable from the root")
    out_kind.reverse()
    out_a.reverse()
    return out_kind, out_a


def _built(kind: bytearray, a: list[int], leaf_count: int) -> Cotree:
    """The tree of a builder's postfix, stored as it is.  A builder's
    output is a postfix over ``0..leaf_count-1`` by construction, so it
    skips the constructor's check."""
    tree = object.__new__(Cotree)
    tree.kind = kind
    tree._a = a
    tree._b = None
    tree.root = len(kind) - 1
    tree.leaf_count = leaf_count
    return tree


# ---------------------------------------------------------------------------
# Text format:  T ::= [0-9]+ | "(" ("+"|"*") T T+ ")"
#
# Whitespace-insensitive between tokens; n-ary nodes are allowed in text and
# are binarized by a left fold, so "(+ 0 1 2)" parses as "(+ (+ 0 1) 2)".
# Serialization always emits the binary form and round-trips exactly.
#
# A chunk of text is split at whitespace once each ')' is spaced apart and
# each '(' with its operator is replaced by the spaced operator alone (a
# cached one-character string).  That gives the regex's tokens one for one,
# '+' and '*' standing for '(+' and '(*', when every character is an ASCII
# digit, '(', ')', '+', '*' or ASCII whitespace and each '(' comes glued to
# an operator and each operator to a '(', as ``serialize_cotree`` writes
# them.  The regex reads any other chunk, such as one with a space after a
# '(', and the error paths rescan with it.
# ---------------------------------------------------------------------------


# A label, an opening parenthesis with its operator, or any other single
# non-space character; of those, only ')' is valid.
_TOKEN = re.compile(r"[0-9]+|\(\s*[+*]|\S")
# Deletes every character a chunk may hold to be split: the ASCII digits,
# '(', ')', '+', '*' and the ASCII characters that ``str.isspace`` accepts.
_PLAIN = str.maketrans("", "", "0123456789()+* \t\n\v\f\r\x1c\x1d\x1e\x1f")
_SPACE = re.compile(r"\s*")
_CHUNK = 1 << 16


def parse_cotree(text: str) -> Cotree:
    """Parse the s-expression cotree format.

    Leaf labels are runs of ASCII digits and must be exactly ``0..n-1``
    with no repeats, where ``n`` is the number of leaves.  Errors report a
    character position.
    """
    kind = bytearray()
    arena_a: list[int] = []
    add_kind, add_a = kind.append, arena_a.append
    # The open frame is (op, operand count), held in locals; enclosing frames
    # wait on ``stack``.  The top level is the frame whose op is None, and
    # the parse ends once it holds one operand.  Children are folded in as
    # they complete, so "(+ A B C)" stores A, B, (A+B), C, ((A+B)+C): the
    # arena comes out in left-first postorder.
    stack: list[tuple[Optional[int], int]] = []
    push, pop = stack.append, stack.pop
    op: Optional[int] = None
    count = 0
    findall = _TOKEN.findall
    length = len(text)
    end = 0
    while op is not None or not count:
        if end == length:
            if op is None:
                raise CotreeParseError("empty input", 0)
            raise CotreeParseError("unclosed '('", _innermost_open(text))
        # A chunk ends just after a ')', so no token spans two chunks, and
        # only one chunk's token strings are alive at a time.
        pos = end
        end = text.find(")", pos + _CHUNK) + 1 or length
        chunk = text[pos:end]
        ops = chunk.count("(+") + chunk.count("(*")
        split = (chunk.count("(") == ops == chunk.count("+") + chunk.count("*")
                 and not chunk.translate(_PLAIN))
        if split:
            tokens = (chunk.replace("(+", " + ").replace("(*", " * ")
                      .replace(")", " ) ").split())
        else:
            tokens = findall(text, pos, end)
        it = iter(tokens)
        for tok in it:
            if tok == ")":
                if count < 2:
                    raise CotreeParseError(
                        "unmatched ')'" if op is None
                        else "internal node needs at least two subtrees",
                        _token_offset(text, pos, end, len(tokens) - length_hint(it) - 1),
                    )
                op, count = pop()
            elif "0" <= tok < ":":  # a label (':' follows '9')
                add_kind(LEAF)
                add_a(int(tok))
            elif split or len(tok) > 1:  # '+' or '*' split, '(' with it matched
                push((op, count))
                op = UNION if tok[-1] == "+" else JOIN
                count = 0
                continue
            else:
                at = _token_offset(text, pos, end, len(tokens) - length_hint(it) - 1)
                if tok != "(":
                    raise CotreeParseError(f"unexpected character {tok!r}", at)
                j = _SPACE.match(text, at + 1).end()
                raise CotreeParseError(
                    "expected '+' or '*' after '('", j if j < length else at
                )
            if count:
                add_kind(op)  # type: ignore[arg-type]
                add_a(-1)
                count += 1
            else:
                count = 1
                if op is None:
                    break
    # The first token after the tree, if any: in this chunk or past it.
    rest = length_hint(it)
    trailing = _TOKEN.search(
        text, _token_offset(text, pos, end, len(tokens) - rest) if rest else end
    )
    if trailing:
        raise CotreeParseError("trailing input after complete tree", trailing.start())

    nodes = len(kind)
    n = (nodes + 1) >> 1
    seen = bytearray(n)
    for label in compress(arena_a, map(not_, kind)):
        if label >= n or seen[label]:
            raise CotreeParseError(
                f"leaf labels must be exactly 0..{n - 1} with no repeats; "
                f"offending label {label}",
                _offending_leaf_offset(text, n),
            )
        seen[label] = 1
    return _built(kind, arena_a, n)


# The error paths below rescan the text, so the parse itself records no
# character positions.


def _token_offset(text: str, pos: int, end: int, index: int) -> int:
    """Offset of the ``index``-th token of ``text[pos:end]``."""
    return next(islice(_TOKEN.finditer(text, pos, end), index, None)).start()


def _innermost_open(text: str) -> int:
    """Offset of the innermost '(' left open at the end of ``text``, whose
    tokens are otherwise well formed."""
    opens = []
    for match in _TOKEN.finditer(text):
        if match.group() == ")":
            opens.pop()
        elif match.group()[0] == "(":
            opens.append(match.start())
    return opens[-1]


def _offending_leaf_offset(text: str, n: int) -> int:
    """Offset of the first leaf whose label is out of range or a repeat.

    Every digit run in parsed text is a leaf.
    """
    seen = bytearray(n)
    for match in re.finditer(r"[0-9]+", text):
        label = int(match.group())
        if label >= n or seen[label]:
            return match.start()
        seen[label] = 1
    return 0


def serialize_cotree(tree: Cotree) -> str:
    """Binary s-expression text; ``parse_cotree`` round-trips it exactly."""
    # The postfix read backwards is a node, its right subtree, then its left
    # one: the text's tokens in reverse.  ``pending`` holds each open node's
    # opening token and, while its right subtree is open, the space before
    # it; a finished subtree releases tokens up to and including a space.
    # The tokens of each chunk of nodes are joined into one piece, so only
    # one chunk's token strings are alive, and the pieces, last first, make
    # the text.
    out: list[str] = []
    emit = out.append
    pending = [" "]  # the whole tree's, dropped at the end
    push, pop = pending.append, pending.pop
    nodes = zip(reversed(tree.kind), reversed(tree._a))
    pieces = []
    for _ in range(0, len(tree.kind), _CHUNK):
        for k, x in islice(nodes, _CHUNK):
            if k == LEAF:
                emit(str(x))
                tok = pop()
                while tok != " ":
                    emit(tok)
                    tok = pop()
                emit(tok)
            else:
                emit(")")
                push("(+ " if k == UNION else "(* ")
                push(" ")
        out.reverse()
        pieces.append("".join(out))
        out.clear()
    # The last piece begins with the whole tree's space.
    pieces[-1] = pieces[-1][1:]
    pieces.reverse()
    return "".join(pieces)


def verify_on_tree(
    tree: Cotree, restricted: RestrictedSet, pairs: Sequence[tuple[int, int]]
) -> VerificationReport:
    """The report :func:`~pairdom.adjacency.verify_solution` gives on the
    tree's materialized graph, for every input, without building an edge.

    Two leaves are adjacent exactly when their lowest common ancestor is a
    join node, and a vertex is dominated exactly when it is matched or some
    join ancestor has a matched vertex under the child that does not contain
    it (:func:`_unseen`).  Both are decided in near-linear time over the
    arena.
    """
    return _verification_report(
        tree.leaf_count,
        restricted,
        pairs,
        lambda pairs: _lca_is_join(tree, pairs),
        lambda mark: all(mark[x] for x in _unseen(tree, mark)),
    )


def _lca_is_join(tree: Cotree, pairs: Sequence[tuple[int, int]]) -> list[bool]:
    """Whether each pair of distinct leaves has a join node as its LCA; a
    pair with an endpoint out of range or repeated reads False.

    In index order (left-first postorder) the nodes below ``i`` are
    finished and the ancestors of node ``i`` are unfinished.  Tarjan's
    offline LCA over the arena in index order: a pair is answered at
    whichever of its leaves comes second, and the LCA is then the lowest
    unfinished ancestor of the earlier leaf.  ``up`` starts as the parent
    array and is path-compressed; every entry stays an ancestor, so the
    walk up to the first node past ``i`` finds it.
    """
    kind, labels = tree.kind, tree._a  # labels are read at leaves only
    # Each pair of distinct leaves is queued at both of them: entry 2j at
    # pairs[j][0], entry 2j + 1 at pairs[j][1], linked per vertex through
    # ``after``.
    n = tree.leaf_count
    first = [-1] * n
    after = [-1] * (2 * len(pairs))
    entry = 0
    for p in pairs:
        u, v = p[0], p[1]
        if 0 <= u < n and 0 <= v < n and u != v:
            after[entry] = first[u]
            first[u] = entry
            after[entry + 1] = first[v]
            first[v] = entry + 1
        entry += 2
    # Parents from one stack pass over the kinds: an internal node takes the
    # two subtrees finished last.
    up = [-1] * len(kind)
    done: list[int] = []
    push, pop = done.append, done.pop
    for i, k in enumerate(kind):
        if k != LEAF:
            up[pop()] = up[pop()] = i
        push(i)
    leaf_node = [-1] * n  # set once the leaf is finished
    answers = [False] * len(pairs)
    for i, k in enumerate(kind):
        if k != LEAF:
            continue
        x = labels[i]
        leaf_node[x] = i
        entry = first[x]
        while entry >= 0:
            node = leaf_node[pairs[entry >> 1][~entry & 1]]
            if node >= 0:
                root = up[node]
                while root < i:
                    root = up[root]
                while up[node] != root:
                    up[node], node = root, up[node]
                answers[entry >> 1] = kind[root] == JOIN
            entry = after[entry]
    return answers


def _unseen(tree: Cotree, mark: Optional[bytearray]) -> list[int]:
    """Sorted labels of the leaves that see no mark through a join
    ancestor: no join above them holds a leaf flagged in ``mark`` (by
    label) under its child that does not contain them.  A leaf's
    neighbours are exactly the leaves on the other sides of its join
    ancestors, so these are the leaves with no marked neighbour.
    ``mark=None`` marks every leaf, and the result is the isolated
    vertices: the leaves with no join ancestor.

    Bottom-up, count the marked leaves under each node; then top-down, a
    child sees a mark when its parent does or its parent is a join whose
    other child holds one.  Both walks are stack passes over the kinds: a
    node's right child is the node just before it, and its left child
    holds the rest of its count.
    """
    kind, labels = tree.kind, tree._a  # labels are read at leaves only
    if mark is None:
        # Any counts that are positive on both sides of every join will do,
        # and the indices are: a join at i has its right child at i - 1 > 0.
        below: Sequence[int] = range(len(kind))
    else:
        below = []
        count = below.append
        done: list[int] = []  # counts of the finished subtrees awaiting a parent
        push, pop = done.append, done.pop
        for k, x in zip(kind, labels):
            c = mark[x] if k == LEAF else pop() + pop()
            push(c)
            count(c)
    # Top-down in reverse index order: the root, its right subtree, then its
    # left one.  ``pending`` holds what each subtree root yet to visit sees.
    out: list[int] = []
    pending = [False]
    push, pop = pending.append, pending.pop
    for i in range(len(kind) - 1, -1, -1):
        sees = pop()
        k = kind[i]
        if k == LEAF:
            if not sees:
                out.append(labels[i])
        elif k == JOIN:
            right = below[i - 1]
            push(sees or right > 0)
            push(sees or below[i] > right)
        else:
            push(sees)
            push(sees)
    out.sort()
    return out
