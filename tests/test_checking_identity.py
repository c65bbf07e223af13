"""Output identity of the checking layer: frozen sha256 digests.

``tests/test_verify_on_tree.py`` compares ``verify_on_tree`` with
``verify_solution``, but the two share their report core and the join
ancestor fact that domination and isolated vertices rest on, so it cannot
see a change made to both.  These digests pin the reports themselves:

* reports: every field of ``verify_solution`` on the materialized graph,
  of ``verify_on_tree`` and of ``is_matching``, one line per pair list,
  over seeded random trees with the solver's pairs and corrupted variants
  of them (out-of-range vertex, self-pair, reused vertex, non-edge,
  dropped pair, random pairs);
* isolated: ``NoSolutionError.isolated`` and the message from ``solve()``
  on union-rooted trees, or ``ok`` when the graph has no isolated vertex.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from pairdom import (
    NoSolutionError,
    is_matching,
    materialize,
    random_cotree,
    random_restricted,
    solve,
    verify_on_tree,
    verify_solution,
)
from pairdom.cotree import JOIN, LEAF, UNION

COUNT = 500


def report_line(report) -> str:
    return " ".join(map(str, (
        report.is_matching, report.is_dominating, report.valid, report.k, report.s,
        report.f, report.matched_number, report.certificate.value, "|".join(report.problems),
    )))


def instance(seed: int):
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    tree = random_cotree(n, rng.choice([0.2, 0.5, 0.8]), seed)
    root_op = rng.choice([None, UNION, JOIN])
    if root_op is not None and tree.kind[tree.root] != LEAF:
        tree.kind[tree.root] = root_op
    return rng, tree, random_restricted(n, rng.choice([0.0, 0.3, 0.7, 1.0]), seed + 1)


def pair_lists(rng: random.Random, tree, restricted, graph) -> list[list[tuple[int, int]]]:
    n = tree.leaf_count
    try:
        solved = [(p.u, p.v) for p in solve(tree, restricted).pairs]
    except NoSolutionError:
        solved = [(u, v) for u, v in graph.edges()[:1]]
    v = rng.randrange(n)
    lists = [
        solved,
        solved[1:],
        solved + [(v, v)],
        solved + [(rng.choice([-1, n, n + 3]), v)],
        solved + [(v, rng.choice([-2, n + 1]))],
        solved + [(v, (v + 1) % n)],
        [(rng.randrange(-1, n + 1), rng.randrange(-1, n + 1)) for _ in range(rng.randint(0, 6))],
    ]
    if solved:
        lists.append(solved + [solved[rng.randrange(len(solved))][::-1]])
    non_edges = [(a, b) for a in range(n) for b in range(a + 1, n) if not graph.has_edge(a, b)]
    if non_edges:
        lists.append(solved + [rng.choice(non_edges)])
    return lists


def reports_digest() -> str:
    lines = []
    for seed in range(COUNT):
        rng, tree, restricted = instance(seed)
        graph = materialize(tree)
        for pairs in pair_lists(rng, tree, restricted, graph):
            lines.append(" ; ".join((
                report_line(verify_solution(graph, restricted, pairs)),
                report_line(verify_on_tree(tree, restricted, pairs)),
                str(is_matching(graph, pairs)),
            )))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def isolated_digest() -> str:
    lines = []
    for seed in range(COUNT):
        rng = random.Random(~seed)
        n = rng.randint(1, 60)
        tree = random_cotree(n, rng.choice([0.2, 0.5, 0.8]), seed)
        if tree.kind[tree.root] != LEAF:
            tree.kind[tree.root] = UNION
        try:
            solve(tree, random_restricted(n, 0.5, seed))
            lines.append("ok")
        except NoSolutionError as err:
            lines.append(f"{err.isolated} {err}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


EXPECTED = {
    "reports": "3384c5dead0ea1542aa5f8da4601df5ba3b8b8272ddfc1517f87a38758f9509c",
    "isolated": "3eaab8e9d9695514651509147ae7f927fb86d9ee470e9b05bbc0a1c40558beeb",
}


@pytest.mark.parametrize("group, digest", [
    ("reports", reports_digest), ("isolated", isolated_digest),
])
def test_checking_output_is_frozen(group, digest):
    assert digest() == EXPECTED[group]
