"""Output identity of ``recognize``: frozen sha256 digests of its results.

A cograph's tree is fixed by the documented binarization (parts in
ascending order of smallest vertex, folded left to right), and a
non-cograph's witness by the order of the search, so a rewrite of the
builder must leave both unchanged.  Each group digests, one line per graph,
``serialize_cotree`` of the tree or the four witness vertices:

* cographs: materialized random trees;
* toggled: the same cographs with one vertex pair's adjacency flipped,
  most of them no longer cographs;
* random: G(n, p) graphs, nearly all of them non-cographs.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from pairdom import P4Witness, materialize, random_cotree, recognize, serialize_cotree
from pairdom.adjacency import Graph, build_graph

COUNT = 400


def result_line(graph: Graph) -> str:
    out = recognize(graph)
    if isinstance(out, P4Witness):
        return "p4 " + " ".join(map(str, out))
    return serialize_cotree(out)


def cograph(seed: int) -> Graph:
    rng = random.Random(seed)
    return materialize(random_cotree(rng.randint(1, 60), rng.choice([0.2, 0.5, 0.8]), seed))


def toggled(seed: int) -> Graph:
    graph = cograph(seed)
    edges = set(graph.edges())
    if graph.n > 1:
        edges ^= {tuple(sorted(random.Random(~seed).sample(range(graph.n), 2)))}
    return build_graph(graph.n, sorted(edges))


def gnp(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    p = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def group_digest(make) -> str:
    lines = "\n".join(result_line(make(seed)) for seed in range(COUNT))
    return hashlib.sha256(lines.encode()).hexdigest()


EXPECTED = {
    "cographs": "64a698467c65b7481b19068f963a9d2d9a3c90dbae4c09af05b276d9310f5451",
    "toggled": "4c16e31b332eddaf6e06fc9e156db113a2e5941a3abe08633c0eec49e2d9db5e",
    "random": "80d7c86495ec04bc1681a877dedb6ff2a76037eabac3933716e483f6a673eb45",
}


@pytest.mark.parametrize("group, make", [
    ("cographs", cograph), ("toggled", toggled), ("random", gnp),
])
def test_recognize_output_is_frozen(group, make):
    assert group_digest(make) == EXPECTED[group]
