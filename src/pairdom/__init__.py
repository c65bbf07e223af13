"""Maximum matched-paired domination on cographs.

A matched-paired-dominating set is a matching whose matched vertices
dominate the whole graph.  Given a set of restricted vertices, the package
finds a solution covering as many restricted vertices as possible with the
fewest pairs of two free endpoints, in near-linear time on cographs (via
their decomposition trees), and ships the surrounding toolkit: cotree
parsing/generation/recognition, an exhaustive oracle for small graphs, and
a CLI (``pairdom``).
"""

from importlib import import_module

from .cotree import Cotree, CotreeParseError, parse_cotree, serialize_cotree, verify_on_tree
from .graphs import (
    Certificate,
    EdgeClass,
    GraphError,
    MPDSolution,
    NoSolutionError,
    PairedEdge,
    RestrictedSet,
    VerificationReport,
    classify_edge,
    format_restricted_text,
    parse_restricted_text,
)

__version__ = "0.1.0"

# The explicit-graph, solver, diagnostics, oracle and generator names load
# on first use, so a process that runs none of them (``pairdom solve
# --cotree``, ``verify --cotree``) does not compile them.
_LAZY = {
    "EdgeCapExceeded": "adjacency",
    "Graph": "adjacency",
    "P4Witness": "adjacency",
    "PropertyViolation": "adjacency",
    "build_graph": "adjacency",
    "check_maximum_properties": "adjacency",
    "format_graph_text": "adjacency",
    "is_dominating": "adjacency",
    "is_induced_p4": "adjacency",
    "is_matching": "adjacency",
    "materialize": "adjacency",
    "parse_graph_text": "adjacency",
    "recognize": "adjacency",
    "verify_solution": "adjacency",
    "OracleCapExceeded": "oracle",
    "OracleResult": "oracle",
    "enumerate_dominating_matchings": "oracle",
    "oracle_canonical": "oracle",
    "oracle_paired_domination_number": "oracle",
    "SolveContext": "solver",
    "SolverInternalError": "solver",
    "SummaryView": "diagnostics",
    "solve": "solver",
    "caterpillar_cotree": "shapes",
    "join_cotrees": "shapes",
    "perfect_join_cotree": "shapes",
    "random_cotree": "shapes",
    "random_restricted": "shapes",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

__all__ = [
    "Certificate",
    "Cotree",
    "CotreeParseError",
    "EdgeCapExceeded",
    "EdgeClass",
    "Graph",
    "GraphError",
    "MPDSolution",
    "NoSolutionError",
    "OracleCapExceeded",
    "OracleResult",
    "P4Witness",
    "PairedEdge",
    "PropertyViolation",
    "RestrictedSet",
    "SolveContext",
    "SolverInternalError",
    "SummaryView",
    "VerificationReport",
    "build_graph",
    "caterpillar_cotree",
    "check_maximum_properties",
    "classify_edge",
    "enumerate_dominating_matchings",
    "format_graph_text",
    "format_restricted_text",
    "is_dominating",
    "is_induced_p4",
    "is_matching",
    "join_cotrees",
    "materialize",
    "oracle_canonical",
    "oracle_paired_domination_number",
    "parse_cotree",
    "parse_graph_text",
    "parse_restricted_text",
    "perfect_join_cotree",
    "random_cotree",
    "random_restricted",
    "recognize",
    "serialize_cotree",
    "solve",
    "verify_on_tree",
    "verify_solution",
]
