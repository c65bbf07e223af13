"""The tree checker agrees with ``verify_solution`` on small instances.

Run from the repository root:
``PYTHONPATH=src python -m pytest -q perfbench/test_check.py``
"""

from __future__ import annotations

import random

import pytest

from pairdom import (
    NoSolutionError,
    materialize,
    random_cotree,
    random_restricted,
    solve,
    verify_solution,
)
from pairdom.cli import format_solution

from check import check_solution, closed_form_problems, parse_solution, tree_problems
from instances import make_tree


def _instances():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        tree = random_cotree(n, rng.choice([0.3, 0.5, 0.8, 1.0]), seed)
        restricted = random_restricted(n, rng.choice([0.0, 0.4, 1.0]), seed + 1)
        yield seed, tree, restricted
    for log_n in range(1, 5):
        n = 2 ** log_n
        yield log_n, make_tree("perfect", n, 0, log_n), random_restricted(n, 1.0, 0)


def _corruptions(rng, n, pairs):
    """Pair lists derived from a valid one, most of them invalid."""
    if pairs:
        yield pairs[:-1]
        yield pairs + [pairs[0]]
        u, v = pairs[0]
        yield [(u, u)] + pairs[1:]
        yield [(u, (v + 1) % n)] + pairs[1:]
    for _ in range(8):
        verts = rng.sample(range(n), 2 * rng.randint(1, n // 2))
        yield [(verts[i], verts[i + 1]) for i in range(0, len(verts), 2)]


@pytest.mark.parametrize("case", list(_instances()), ids=lambda c: str(c[0]))
def test_tree_check_matches_verify_solution(case):
    seed, tree, restricted = case
    graph = materialize(tree)
    rng = random.Random(seed)
    try:
        solution = solve(tree, restricted)
        lists = [[(p.u, p.v) for p in solution.pairs]]
    except NoSolutionError:
        lists = [[]]
    lists.extend(_corruptions(rng, tree.leaf_count, lists[0]))
    for pairs in lists:
        report = verify_solution(graph, restricted, pairs)
        assert (not tree_problems(tree, pairs)) == report.valid, pairs


@pytest.mark.parametrize("case", list(_instances()), ids=lambda c: str(c[0]))
def test_solver_text_passes(case):
    _, tree, restricted = case
    try:
        text = format_solution(solve(tree, restricted))
    except NoSolutionError:
        return
    assert check_solution(tree, restricted.flags, text) == []


def test_text_corruptions_are_reported():
    tree = random_cotree(40, 0.6, 3)
    restricted = random_restricted(40, 0.5, 4)
    text = format_solution(solve(tree, restricted))
    beta, (k, s, f), rows = parse_solution(text)
    head = f"beta {beta}\nkfs {k} {s} {f}\n"
    body = "".join(f"pair {u} {v} {c}\n" for u, v, c in rows)
    bad_class = {"full": "semi", "semi": "free", "free": "full"}[rows[0][2]]
    corrupt = [
        f"beta {beta + 1}\nkfs {k} {s} {f}\n" + body,
        f"beta {beta}\nkfs {k} {s} {f + 1}\n" + body,
        head + body.replace(f" {rows[0][2]}\n", f" {bad_class}\n", 1),
        head + "".join(f"pair {u} {v} {c}\n" for u, v, c in reversed(rows)),
        head + body.rstrip("\n"),
        head + "pair x 1 full\n",
    ]
    for bad in corrupt:
        assert check_solution(tree, restricted.flags, bad), bad


def test_closed_form():
    n = 16
    text = format_solution(solve(make_tree("perfect", n, 0, 7), list(range(n))))
    assert closed_form_problems(text, n) == []
    assert closed_form_problems(text.replace("beta 16", "beta 14"), n)
