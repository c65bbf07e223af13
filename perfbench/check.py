"""Output checker that works at full size, on the cotree instead of a graph.

A solution is checked from its text, against the tree and the restricted
flags, without materializing any edge:

* the text has the ``beta`` / ``kfs`` headers and ``pair u v cls`` rows with
  ``u < v``, sorted ascending;
* no vertex is used twice, every vertex is in range, each row's class agrees
  with the restricted set, the class counts equal ``kfs`` and
  ``beta == 2k + s``;
* every pair is an edge: two leaves are adjacent exactly when their lowest
  common ancestor is a join node, found for all pairs at once by Tarjan's
  offline LCA with union-find;
* the matched vertices dominate: a vertex is dominated exactly when it is
  matched, or some join ancestor has a matched vertex under the child that
  does not contain it.

The checker shares no code with the solver or with ``verify_solution``; the
tests in this directory compare it with ``verify_solution`` on small graphs.
"""

from __future__ import annotations

_LEAF, _JOIN = 0, 2  # node kinds of pairdom.cotree
_CLASSES = ("free", "semi", "full")  # indexed by the number of restricted ends


def parse_solution(text: str) -> tuple[int, tuple[int, int, int], list[tuple[int, int, str]]]:
    """Strict reader of the solution text: (beta, (k, s, f), [(u, v, cls)])."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("solution text does not end with a newline")
    head, rows = lines[:2], lines[2:-1]
    if len(head) < 2:
        raise ValueError("solution text is missing the beta/kfs headers")
    beta_f, kfs_f = head[0].split(), head[1].split()
    if len(beta_f) != 2 or beta_f[0] != "beta" or len(kfs_f) != 4 or kfs_f[0] != "kfs":
        raise ValueError(f"bad headers {head[0]!r} / {head[1]!r}")
    beta = int(beta_f[1])
    kfs = (int(kfs_f[1]), int(kfs_f[2]), int(kfs_f[3]))
    pairs = []
    for row in rows:
        fields = row.split(" ")
        if len(fields) != 4 or fields[0] != "pair":
            raise ValueError(f"bad pair row {row!r}")
        pairs.append((int(fields[1]), int(fields[2]), fields[3]))
    return beta, kfs, pairs


def text_problems(text: str, rflags, n: int) -> tuple[list[str], list[tuple[int, int]]]:
    """Format and counting problems of a solution text, plus its pairs."""
    try:
        beta, (k, s, f), rows = parse_solution(text)
    except ValueError as exc:
        return [f"unparsable: {exc}"], []
    problems = []
    counts = [0, 0, 0]
    prev = (-1, -1)
    for u, v, cls in rows:
        if not (0 <= u < v < n):
            problems.append(f"bad-endpoints {u} {v}")
            continue
        if (u, v) <= prev:
            problems.append(f"not-sorted {u} {v}")
        prev = (u, v)
        restricted_ends = rflags[u] + rflags[v]
        counts[restricted_ends] += 1
        if cls != _CLASSES[restricted_ends]:
            problems.append(f"wrong-class {u} {v} {cls}")
    free, semi, full = counts
    if (full, semi, free) != (k, s, f):
        problems.append(f"kfs-mismatch header {(k, s, f)} counted {(full, semi, free)}")
    if len(rows) != k + s + f:
        problems.append(f"pair-count {len(rows)} != k+s+f {k + s + f}")
    if beta != 2 * k + s:
        problems.append(f"beta {beta} != 2k+s {2 * k + s}")
    return problems, [(u, v) for u, v, _ in rows if 0 <= u < v < n]


def tree_problems(tree, pairs) -> list[str]:
    """Matching, edge and domination problems of ``pairs`` on ``tree``'s graph."""
    kind, a, b, n = tree.kind, tree.a, tree.b, tree.leaf_count
    nodes = len(kind)
    problems = []

    matched = bytearray(n)
    for u, v in pairs:
        for x in (u, v):
            if not 0 <= x < n:
                problems.append(f"out-of-range {x}")
            elif matched[x]:
                problems.append(f"vertex-reused {x}")
            else:
                matched[x] = 1
        if u == v:
            problems.append(f"self-pair {u}")
    if problems:
        return problems

    # Preorder with the right child first; reversed, it is the left-first
    # postorder, so leaves come out in left-to-right order.
    parent = [-1] * nodes
    pre = []
    stack = [tree.root]
    while stack:
        i = stack.pop()
        pre.append(i)
        if kind[i] != _LEAF:
            parent[a[i]] = i
            parent[b[i]] = i
            stack.append(a[i])
            stack.append(b[i])
    post = pre[::-1]

    leaf_node = [0] * n
    leaf_rank = [0] * n
    rank = 0
    for i in post:
        if kind[i] == _LEAF:
            leaf_node[a[i]] = i
            leaf_rank[a[i]] = rank
            rank += 1

    # Each pair is asked at its right-hand leaf, about its left-hand leaf.
    earlier = [-1] * n
    for u, v in pairs:
        if leaf_rank[u] < leaf_rank[v]:
            earlier[v] = u
        else:
            earlier[u] = v

    # Tarjan's offline LCA on the postorder: a finished node is linked to
    # its parent when the parent finishes.  At a leaf, the set root of an
    # earlier leaf is its highest finished ancestor, whose parent -- not yet
    # finished, so also an ancestor of this leaf -- is the LCA.
    uf = list(range(nodes))
    for i in post:
        if kind[i] != _LEAF:
            uf[a[i]] = i
            uf[b[i]] = i
            continue
        other = earlier[a[i]]
        if other < 0:
            continue
        root = leaf_node[other]
        while uf[root] != root:
            root = uf[root]
        x = leaf_node[other]
        while uf[x] != root:
            uf[x], x = root, uf[x]
        if kind[parent[root]] != _JOIN:
            u, v = sorted((a[i], other))
            problems.append(f"not-an-edge {u} {v}")

    # Matched vertices per subtree, bottom-up; then, top-down, whether a
    # join ancestor sees a matched vertex on the other side.
    below = [0] * nodes
    for i in post:
        below[i] = matched[a[i]] if kind[i] == _LEAF else below[a[i]] + below[b[i]]
    seen = bytearray(nodes)
    for i in pre:
        if kind[i] == _LEAF:
            if not (matched[a[i]] or seen[i]):
                problems.append(f"undominated {a[i]}")
            continue
        left, right = a[i], b[i]
        join = kind[i] == _JOIN
        seen[left] = seen[i] or (join and below[right] > 0)
        seen[right] = seen[i] or (join and below[left] > 0)
    return problems


def check_solution(tree, rflags, text: str) -> list[str]:
    """Every problem found in ``text`` as a solution of (tree, R); [] if valid."""
    problems, pairs = text_problems(text, rflags, tree.leaf_count)
    return problems + tree_problems(tree, pairs)


def closed_form_problems(text: str, n: int) -> list[str]:
    """A complete graph with every vertex restricted and n even: beta = n,
    k = n/2, s = f = 0."""
    beta, kfs, _ = parse_solution(text)
    if (beta, kfs) != (n, (n // 2, 0, 0)):
        return [f"closed-form beta {beta} kfs {kfs}, want {n} {(n // 2, 0, 0)}"]
    return []
