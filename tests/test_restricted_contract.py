"""Every consumer takes the restricted set over the graph's own vertices.

A ``RestrictedSet`` over any other vertex count raises the one
``ValueError`` at each of the six entry points: a set over fewer vertices
is not indexed past its end, and one over more is neither cut to the graph
nor read as free past its end.
"""

from __future__ import annotations

import pytest

from pairdom import (
    RestrictedSet,
    check_maximum_properties,
    enumerate_dominating_matchings,
    materialize,
    oracle_canonical,
    parse_cotree,
    solve,
    verify_on_tree,
    verify_solution,
)

TREE = parse_cotree("(* 0 (+ 1 2))")  # the star with centre 0
GRAPH = materialize(TREE)
PAIRS = [(0, 1)]

ENTRY_POINTS = {
    "solve": lambda r: solve(TREE, r),
    "verify_solution": lambda r: verify_solution(GRAPH, r, PAIRS),
    "verify_on_tree": lambda r: verify_on_tree(TREE, r, PAIRS),
    "check_maximum_properties": lambda r: check_maximum_properties(GRAPH, r, PAIRS),
    "enumerate_dominating_matchings": lambda r: enumerate_dominating_matchings(GRAPH, r),
    "oracle_canonical": lambda r: oracle_canonical(GRAPH, r),
}

CASES = [
    pytest.param(entry, RestrictedSet(size, [0, 1]), id=f"{entry}-over-{size}")
    for entry in ENTRY_POINTS
    for size in (2, 4)
] + [
    # Members that exist only past the graph's end, and an empty short set.
    pytest.param("verify_on_tree", RestrictedSet(5, [3, 4]), id="verify_on_tree-past-the-end"),
    pytest.param(
        "check_maximum_properties", RestrictedSet(5, [3, 4]),
        id="check_maximum_properties-past-the-end",
    ),
    pytest.param("oracle_canonical", RestrictedSet(5, [3, 4]), id="oracle_canonical-past-the-end"),
    pytest.param("oracle_canonical", RestrictedSet(2), id="oracle_canonical-empty-over-2"),
]


@pytest.mark.parametrize("entry, restricted", CASES)
def test_set_over_another_vertex_count_is_rejected(entry, restricted):
    with pytest.raises(ValueError) as err:
        ENTRY_POINTS[entry](restricted)
    assert str(err.value) == f"restricted set is over {restricted.n} vertices, graph has 3"
