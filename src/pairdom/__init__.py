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

from .cotree import (
    Cotree,
    CotreeParseError,
    EdgeCapExceeded,
    P4Witness,
    is_induced_p4,
    materialize,
    parse_cotree,
    random_cotree,
    random_restricted,
    recognize,
    serialize_cotree,
    verify_on_tree,
)
from .graphs import (
    Certificate,
    EdgeClass,
    Graph,
    GraphError,
    MPDSolution,
    NoSolutionError,
    PairedEdge,
    PropertyViolation,
    RestrictedSet,
    VerificationReport,
    build_graph,
    check_maximum_properties,
    classify_edge,
    format_graph_text,
    format_restricted_text,
    is_dominating,
    is_matching,
    parse_graph_text,
    parse_restricted_text,
    verify_solution,
)

__version__ = "0.1.0"

# The solver, diagnostics and oracle names load on first use, so a process
# that runs none of them (``pairdom verify``, ``gen``, ``recognize``) does
# not compile them.
_LAZY = {
    "OracleCapExceeded": "oracle",
    "OracleResult": "oracle",
    "enumerate_dominating_matchings": "oracle",
    "oracle_canonical": "oracle",
    "oracle_paired_domination_number": "oracle",
    "SolveContext": "solver",
    "SolverInternalError": "solver",
    "SummaryView": "diagnostics",
    "solve": "solver",
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
    "check_maximum_properties",
    "classify_edge",
    "enumerate_dominating_matchings",
    "format_graph_text",
    "format_restricted_text",
    "is_dominating",
    "is_induced_p4",
    "is_matching",
    "materialize",
    "oracle_canonical",
    "oracle_paired_domination_number",
    "parse_cotree",
    "parse_graph_text",
    "parse_restricted_text",
    "random_cotree",
    "random_restricted",
    "recognize",
    "serialize_cotree",
    "solve",
    "verify_on_tree",
    "verify_solution",
]
