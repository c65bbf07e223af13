"""Shared instance builders for the test suite."""

from __future__ import annotations

import random

import pytest

from pairdom import Graph, build_graph


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return build_graph(n, edges)


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cube_graph() -> Graph:
    """The 3-cube: vertices are 3-bit strings, edges flip one bit."""
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return build_graph(8, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def random_instance_params(seed: int) -> tuple[int, float, float]:
    """The seeded (n, join_bias, density) grid used across differential tests."""
    rng = random.Random(seed * 7919 + 13)
    n = rng.randint(2, 10)
    join_bias = rng.choice([0.3, 0.5, 0.8])
    density = rng.choice([0.0, 0.3, 0.7, 1.0])
    return n, join_bias, density


# Graph texts whose numbers are not ASCII digits with an optional leading
# '-', which bare int() would read ('1_2' as 12, '+0' as 0, '\u0663' as 3).
NON_NUMBER_GRAPH_TEXTS = [
    pytest.param("p 1_2 1\ne 0 1\n", "line 1: non-integer in 'p' header",
                 id="header-underscore"),
    pytest.param("p 4 +1\ne 0 1\n", "line 1: non-integer in 'p' header",
                 id="header-plus-sign"),
    pytest.param("p 4 1\ne +0 1\n", "line 2: non-integer endpoint", id="endpoint-plus-sign"),
    pytest.param("p 4 1\ne 0 \u0663\n", "line 2: non-integer endpoint",
                 id="endpoint-arabic-indic"),
]

# A negative count is rejected where it stands, not read as a missing
# header, and a later header cannot stand in for it.
NEGATIVE_HEADER_GRAPH_TEXTS = [
    pytest.param("p -1 0\n", "line 1: negative count in 'p' header", id="negative-n"),
    pytest.param("p -1 0\np 2 1\ne 0 1\n", "line 1: negative count in 'p' header",
                 id="negative-n-then-header"),
    pytest.param("# k2\np 2 -1\ne 0 1\n", "line 2: negative count in 'p' header",
                 id="negative-m"),
]


@pytest.fixture
def q3() -> Graph:
    return cube_graph()
