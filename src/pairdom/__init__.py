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

__version__ = "0.1.0"

# Each public name, listed once under its module.  A name loads its module
# on first use, so ``import pairdom`` loads no submodule and a process
# compiles only the modules it runs.
_NAMES = {
    "cotree": "Cotree CotreeParseError parse_cotree serialize_cotree verify_on_tree",
    "graphs": """Certificate EdgeClass GraphError MPDSolution NoSolutionError PairedEdge
        RestrictedSet VerificationReport classify_edge format_restricted_text
        parse_restricted_text""",
    "adjacency": """EdgeCapExceeded Graph P4Witness PropertyViolation build_graph
        check_maximum_properties format_graph_text is_dominating is_induced_p4
        is_matching materialize parse_graph_text recognize verify_solution""",
    "solver": "SolveContext SolverInternalError solve",
    "diagnostics": "SummaryView",
    "oracle": """OracleCapExceeded OracleResult enumerate_dominating_matchings
        oracle_canonical oracle_paired_domination_number""",
    "shapes": "caterpillar_cotree join_cotrees perfect_join_cotree random_cotree random_restricted",
}
_LAZY = {name: module for module, names in _NAMES.items() for name in names.split()}
del _NAMES  # kept as ``_LAZY`` only, so ``dir(pairdom)`` does not list it
__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
