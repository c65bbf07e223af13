"""Command-line surface: solve, verify, oracle, gen, recognize, bench.

Exit codes are a stable contract:

* 0 -- success
* 1 -- malformed input, a usage error or an exceeded cap
* 2 -- no solution (the graph has isolated vertices)
* 3 -- not a cograph (an induced-P4 witness is printed)
* 4 -- verification failure

Solution text format (diff-friendly): two header lines ``beta <matched>``
and ``kfs <k> <s> <f>``, then one ``pair <u> <v> <full|semi|free>`` line per
pair with ``u < v``, sorted ascending.  Bench output is CSV rows
``n,seed,solve_ns,pairs,beta`` followed by one
``ratio,<n1>:<n2>,<t2/t1>,,`` summary row per consecutive size pair.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from functools import partial
from itertools import compress
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn, Optional, Sequence

from .cotree import parse_cotree, serialize_cotree, verify_on_tree
from .graphs import (
    GraphError,
    MPDSolution,
    NoSolutionError,
    RestrictedSet,
    _int_token,
    format_restricted_text,
    parse_restricted_text,
)

# The explicit-graph code, the solver, the oracle, the generators and
# ``statistics`` are imported by the commands and branches that run them,
# so a process compiles only what its command needs.
if TYPE_CHECKING:
    from .adjacency import P4Witness

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_SOLUTION = 2
EXIT_NOT_COGRAPH = 3
EXIT_VERIFY_FAILED = 4

# A row's class as a byte, one more than the row's number of restricted
# endpoints, and the row's end for that byte.
_CLASS_CODES = {"free": 1, "semi": 2, "full": 3}
_ROW_TAILS = (None, " free\n", " semi\n", " full\n")
_SLOTS = 1 << 12  # slots per piece of the solution text


def format_solution(solution: MPDSolution) -> str:
    """The solution text: the pieces of :func:`_solution_pieces` joined."""
    return "".join(_solution_pieces(solution))


def _solution_pieces(solution: MPDSolution) -> Iterator[str]:
    """The solution text in pieces: the two header lines, then the rows of
    one bounded chunk of slots at a time.

    Each row goes into a slot list at its smaller endpoint, which no two
    pairs of a solution share (its pairs are vertex-disjoint), so the slots
    hold the rows in order with no dict, sort or per-row tuple: a slot keeps
    the larger endpoint, and a byte beside it the class.  Reads only the
    solution's columns.  Raises ``ValueError`` here, before any piece, when
    two pairs do share their smaller endpoint."""
    us, vs, classes = solution._columns()
    base = min(min(us, default=0), min(vs, default=0))
    size = max(max(us, default=-1), max(vs, default=-1)) + 1 - base
    partner: list[Optional[int]] = [None] * size
    codes = bytearray(size)
    # ``_value_`` is the plain attribute behind the ``value`` property.
    for u, v, code in zip(us, vs, map(_CLASS_CODES.__getitem__, map(attrgetter("_value_"), classes))):
        if u > v:
            u, v = v, u
        u -= base
        partner[u] = v
        codes[u] = code
    if size - codes.count(0) != len(us):
        raise ValueError("two pairs share their smaller endpoint")
    header = f"beta {solution.matched_number}\nkfs {solution.k} {solution.s} {solution.f}\n"

    def pieces() -> Iterator[str]:
        yield header
        tails = _ROW_TAILS
        for a in range(0, size, _SLOTS):
            b = a + _SLOTS
            have = codes[a:b]
            rows = zip(
                compress(range(base + a, base + b), have),
                compress(partner[a:b], have),
                filter(None, have),
            )
            yield "".join([f"pair {u} {v}{tails[c]}" for u, v, c in rows])

    return pieces()


def parse_solution_text(text: str) -> tuple[int, tuple[int, int, int], list[tuple[int, int]]]:
    """Read the solution format back: (beta, (k, s, f), pairs)."""
    return _solution_rows(text)[:3]


def _solution_rows(
    text: str,
) -> tuple[int, tuple[int, int, int], list[tuple[int, int]], bytearray]:
    """:func:`parse_solution_text`'s three values, then each pair's class
    token as its byte in ``_CLASS_CODES``, in input order."""
    beta: Optional[int] = None
    kfs: Optional[tuple[int, int, int]] = None
    pairs: list[tuple[int, int]] = []
    codes = bytearray()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        head = fields[0]
        try:
            if head == "beta" and len(fields) == 2 and beta is None:
                beta = _int_token(fields[1])
            elif head == "kfs" and len(fields) == 4 and kfs is None:
                kfs = (_int_token(fields[1]), _int_token(fields[2]), _int_token(fields[3]))
            elif head == "pair" and len(fields) == 4 and fields[3] in _CLASS_CODES:
                pairs.append((_int_token(fields[1]), _int_token(fields[2])))
                codes.append(_CLASS_CODES[fields[3]])
            else:
                raise ValueError
        except ValueError:
            seen = {"beta": beta, "kfs": kfs}.get(head) is not None
            problem = f"repeated {head} header" if seen else "cannot parse"
            raise GraphError(f"solution line {lineno}: {problem} {line!r}") from None
    if beta is None or kfs is None:
        raise GraphError("solution file is missing the beta/kfs headers")
    return beta, kfs, pairs, codes


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: Optional[str], pieces: Iterable[str]) -> None:
    """Write a text's pieces, one at a time, to the file at ``path``, or to
    stdout when it is None."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _not_cograph(witness: P4Witness) -> int:
    """Print the ``p4 a b c d`` line; returns its exit code."""
    print(f"p4 {witness.a} {witness.b} {witness.c} {witness.d}")
    return EXIT_NOT_COGRAPH


def _parse_restricted_arg(spec: Optional[str], n: int) -> RestrictedSet:
    """Inline list (``0,3,5`` or ``"0, 3 5"``: only digits, commas and
    whitespace) or a file path; absent means empty."""
    if spec is None:
        return RestrictedSet.empty(n)
    if re.fullmatch(r"[0-9,\s]*", spec):
        return parse_restricted_text(spec.replace(",", " "), n)
    return parse_restricted_text(_read(spec), n)


def _cmd_solve(args: argparse.Namespace) -> int:
    from .solver import solve

    # A graph is recognized into its cotree; nothing is materialized.
    if args.cotree is not None:
        tree = parse_cotree(_read(args.cotree))
    else:
        from .adjacency import P4Witness, parse_graph_text, recognize

        tree = recognize(parse_graph_text(_read(args.graph)))
        if isinstance(tree, P4Witness):
            return _not_cograph(tree)
    restricted = _parse_restricted_arg(args.restricted, tree.leaf_count)
    solution = solve(tree, restricted)
    _write(args.output, _solution_pieces(solution))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    # A tree is checked on itself: only graph input has edges to look up.
    if args.cotree is not None:
        tree = parse_cotree(_read(args.cotree))
        n, check = tree.leaf_count, partial(verify_on_tree, tree)
    else:
        from .adjacency import parse_graph_text, verify_solution

        graph = parse_graph_text(_read(args.graph))
        n, check = graph.n, partial(verify_solution, graph)
    restricted = _parse_restricted_arg(args.restricted, n)
    beta, kfs, pairs, codes = _solution_rows(_read(args.solution))
    report = check(restricted, pairs)
    print(f"valid {str(report.valid).lower()}")
    print(f"kfs {report.k} {report.s} {report.f}")
    print(f"matched {report.matched_number}")
    print(f"certificate {report.certificate.value}")
    problems = list(report.problems)
    if not report.is_dominating:
        problems.append("not-dominating")
    flags = restricted.flags
    problems += [
        f"wrong-class {u} {v}"
        for (u, v), code in zip(pairs, codes)
        if 0 <= u < n and 0 <= v < n and code != flags[u] + flags[v] + 1
    ]
    if report.valid and (kfs != (report.k, report.s, report.f) or beta != report.matched_number):
        problems.append("stats-mismatch")
    for problem in problems:
        print(f"reason {problem}")
    return EXIT_VERIFY_FAILED if problems else EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .adjacency import materialize, parse_graph_text
    from .oracle import _check_cap, oracle_canonical, oracle_paired_domination_number

    if args.cotree is not None:
        tree = parse_cotree(_read(args.cotree))
        _check_cap(tree.leaf_count, args.max_n)  # before building any edge
        graph = materialize(tree)
    else:
        graph = parse_graph_text(_read(args.graph))
    if args.gamma_p:
        gamma = oracle_paired_domination_number(graph, max_vertices=args.max_n)
        print(f"gamma_p {gamma}")
        return EXIT_OK
    restricted = _parse_restricted_arg(args.restricted, graph.n)
    result = oracle_canonical(graph, restricted, max_vertices=args.max_n)
    print(f"beta {result.beta} fmin {result.f_min}")
    sys.stdout.write(format_solution(result.witness))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    from .shapes import random_cotree, random_restricted

    tree = random_cotree(args.n, args.join_bias, args.seed)
    # Independent stream for the restricted choice (documented offset).
    restricted = random_restricted(args.n, args.density or 0.0, args.seed + 1)
    _write(args.out_cotree, (serialize_cotree(tree), "\n"))
    if args.out_restricted or args.density is not None:
        _write(args.out_restricted, [format_restricted_text(restricted)])
    return EXIT_OK


def _cmd_recognize(args: argparse.Namespace) -> int:
    from .adjacency import P4Witness, parse_graph_text, recognize

    graph = parse_graph_text(_read(args.graph))
    result = recognize(graph)
    if isinstance(result, P4Witness):
        return _not_cograph(result)
    print(serialize_cotree(result))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    import statistics

    from .shapes import random_cotree, random_restricted
    from .solver import solve

    rows = ["n,seed,solve_ns,pairs,beta"]
    medians: list[tuple[int, float]] = []
    for n in args.sizes:
        tree = random_cotree(n, args.join_bias, args.seed)
        restricted = random_restricted(n, args.density, args.seed + 1)
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter_ns()
            solution = solve(tree, restricted)
            elapsed = time.perf_counter_ns() - t0
            times.append(elapsed)
            rows.append(f"{n},{args.seed},{elapsed},{solution.k + solution.s + solution.f},"
                        f"{solution.matched_number}")
        medians.append((n, statistics.median(times)))
    for (n1, t1), (n2, t2) in zip(medians, medians[1:]):
        rows.append(f"ratio,{n1}:{n2},{t2 / t1:.3f},,")
    _write(args.output, ["\n".join(rows) + "\n"])
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT (argparse uses 2, the no-solution
    code); sub-parsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pairdom",
        description="Maximum matched-paired domination on cographs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--cotree", help="decomposition tree file (s-expression)")
        src.add_argument("--graph", help="graph file (p/e format); recognized first")
        p.add_argument("--restricted", help="file path or inline comma list (default: empty)")

    def number(text: str) -> int:
        # Every integer option takes a number token, as the text formats
        # read them.
        try:
            return _int_token(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    def at_least_one(text: str) -> int:
        # A cap below 1 admits no instance (the empty graph is not one), and
        # no repeat leaves no time to take a median of.
        value = number(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
        return value

    def sizes(text: str) -> list[int]:
        values = [number(tok) for tok in text.split(",") if tok]
        if not values or min(values) < 1:
            raise argparse.ArgumentTypeError(f"needs sizes of at least 1, got {text!r}")
        return values

    p = sub.add_parser("solve", help="solve one instance")
    add_instance_args(p)
    p.add_argument("--output", help="write the solution here instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against an instance")
    add_instance_args(p)
    p.add_argument("--solution", required=True, help="solution file to check")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive optimum for small instances")
    add_instance_args(p)
    p.add_argument("--gamma-p", action="store_true", help="print the paired-domination number only")
    p.add_argument("--max-n", type=at_least_one, default=16, help="exhaustive-search vertex cap")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("-n", type=number, required=True, help="number of vertices (leaves)")
    p.add_argument("--join-bias", type=float, default=0.5, help="P(join) per internal node")
    p.add_argument(
        "--density",
        type=float,
        default=None,
        help="restricted density; omit to skip the restricted line on stdout",
    )
    p.add_argument("--seed", type=number, default=0)
    p.add_argument("--out-cotree", help="write the tree here instead of stdout")
    p.add_argument("--out-restricted", help="write the restricted set here")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("recognize", help="decompose a graph or print a P4 witness")
    p.add_argument("--graph", required=True, help="graph file (p/e format)")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("bench", help="timing table over generated instances")
    p.add_argument("--sizes", type=sizes, required=True,
                   help="comma-separated sizes, e.g. 10000,100000")
    p.add_argument("--join-bias", type=float, default=0.5)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=number, default=0)
    p.add_argument("--repeats", type=at_least_one, default=5)
    p.add_argument("--output", help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # The solver and the oracle raise it before a command writes anything.
    except NoSolutionError as exc:
        print("no-solution isolated " + " ".join(map(str, exc.isolated)))
        return EXIT_NO_SOLUTION
    # GraphError, CotreeParseError and OracleCapExceeded are ValueErrors.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
