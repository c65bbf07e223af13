"""The text layers in columns: chunked readers and writers, and solutions
kept as label columns.

Each chunked reader or writer is checked against the one-list form it
replaced, kept here as the reference: the same text byte for byte, and the
same set or the same error.  A solver-built solution is checked against the
tuple of :class:`PairedEdge` rows that extraction used to build.
"""

from __future__ import annotations

import pickle
import random
import re
import tracemalloc
from dataclasses import FrozenInstanceError
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pairdom import (
    EdgeClass,
    GraphError,
    MPDSolution,
    PairedEdge,
    RestrictedSet,
    SolveContext,
    caterpillar_cotree,
    format_restricted_text,
    parse_cotree,
    parse_restricted_text,
    perfect_join_cotree,
    random_cotree,
    random_restricted,
    serialize_cotree,
)
from pairdom import graphs
from pairdom.cli import _SLOTS, format_solution, main
from pairdom.cotree import _CHUNK as NODE_CHUNK, JOIN, LEAF, UNION
from pairdom.solver import _FH, _KH, _SH
from test_output_identity import GRID_BIASES, GRID_DENSITIES, GRID_SIZES

# -- the one-list forms, kept as references ----------------------------------


def reference_serialize(tree) -> str:
    out: list[str] = []
    pending = [" "]
    for k, x in zip(reversed(tree.kind), reversed(tree._a)):
        if k == LEAF:
            out.append(str(x))
            tok = pending.pop()
            while tok != " ":
                out.append(tok)
                tok = pending.pop()
            out.append(tok)
        else:
            out.append(")")
            pending.append("(+ " if k == UNION else "(* ")
            pending.append(" ")
    out.pop()
    out.reverse()
    return "".join(out)


def reference_restricted_text(restricted: RestrictedSet) -> str:
    members = restricted.members()
    return " ".join(str(v) for v in members) + ("\n" if members else "")


_ID_TEXT = re.compile(r"[0-9\s-]*")


def reference_parse_restricted(text: str, n: int) -> RestrictedSet:
    """The whole-text token list: one map when every character is a digit,
    a '-' or whitespace, else token by token."""
    tokens = text.split()
    try:
        ids = list(map(int, tokens)) if _ID_TEXT.fullmatch(text) else None
    except ValueError:
        ids = None
    if ids is None:
        ids = []
        for tok in tokens:
            try:
                ids.append(graphs._int_token(tok))
            except ValueError:
                raise GraphError(f"restricted set: non-integer token {tok!r}") from None
    return RestrictedSet(n, ids)


def reference_format(solution: MPDSolution) -> str:
    """Rows in a dict keyed by the smaller endpoint, sorted."""
    lines = [f"beta {solution.matched_number}", f"kfs {solution.k} {solution.s} {solution.f}"]
    rows = {}
    for u, v, cls in solution.pairs:
        if u > v:
            u, v = v, u
        rows[u] = f"pair {u} {v} {cls.value}"
    if len(rows) != len(solution.pairs):
        raise ValueError("two pairs share their smaller endpoint")
    lines.extend(map(rows.__getitem__, sorted(rows)))
    lines.append("")
    return "\n".join(lines)


def eager_pairs(ctx: SolveContext, root) -> tuple[PairedEdge, ...]:
    """The tuple extraction built: full, then semi, then free rows."""
    lab = ctx.labels
    out = []
    for chain, cls in ((_KH, EdgeClass.FULL), (_SH, EdgeClass.SEMI), (_FH, EdgeClass.FREE)):
        us, vs = ctx._pair_ends(root, chain)
        out.extend(PairedEdge(lab[u], lab[v], cls) for u, v in zip(us, vs))
    return tuple(out)


def outcome(read, text: str, n: int):
    """A reader's result as comparable data: the flags and count, or the
    error's type and text."""
    try:
        r = read(text, n)
    except ValueError as err:
        return type(err), str(err)
    return bytes(r.flags), r.count


# -- writers and readers of the instance texts -------------------------------


class TestSerializeChunks:
    # 2n - 1 nodes: one short of a chunk, one past it, and three chunks
    # with one node short and one node over.
    @pytest.mark.parametrize(
        "n", [1, 2, NODE_CHUNK // 2, NODE_CHUNK // 2 + 1, 3 * NODE_CHUNK // 2, 3 * NODE_CHUNK // 2 + 1]
    )
    def test_random_trees_match_the_one_list_form(self, n):
        tree = random_cotree(n, 0.5, n)
        text = serialize_cotree(tree)
        assert text == reference_serialize(tree)
        assert serialize_cotree(parse_cotree(text)) == text

    def test_deep_spine_across_three_chunks(self):
        # Every open node's tokens wait on the pending stack across chunks.
        tree = caterpillar_cotree(3 * NODE_CHUNK // 2 + 1, 0.5, 4)
        assert len(tree.kind) > 3 * NODE_CHUNK
        text = serialize_cotree(tree)
        assert text == reference_serialize(tree)
        assert parse_cotree(text).kind == tree.kind


class TestRestrictedTextChunks:
    @pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
    def test_writer_matches_the_one_list_form(self, density):
        n = 3 * graphs._CHUNK + 5
        restricted = random_restricted(n, density, 7)
        text = format_restricted_text(restricted)
        assert text == reference_restricted_text(restricted)
        assert parse_restricted_text(text, n).flags == restricted.flags

    def test_writer_round_trips_over_three_chunks(self):
        n = 3 * graphs._CHUNK + 1
        restricted = RestrictedSet(n, range(n))
        text = format_restricted_text(restricted)
        again = parse_restricted_text(text, n)
        assert (again.flags, again.count) == (restricted.flags, n)

    @pytest.mark.parametrize(
        "late, want",
        [
            ("999999", "restricted vertex 999999 out of range"),
            ("-4", "restricted vertex -4 out of range"),
            ("7x", "restricted set: non-integer token '7x'"),
        ],
    )
    def test_fault_in_a_late_chunk(self, late, want):
        n = 100_000
        text = " ".join(map(str, range(0, n, 2))) + f"\n{late} 1\n"
        assert len(text) > 3 * graphs._CHUNK
        with pytest.raises(GraphError, match=re.escape(want)):
            parse_restricted_text(text, n)
        assert outcome(parse_restricted_text, text, n) == outcome(
            reference_parse_restricted, text, n
        )

    def test_late_non_integer_beats_early_out_of_range(self):
        # The whole text's tokens are read before any id is range-checked.
        text = "5 77 " + "1 " * graphs._CHUNK + "x"
        with pytest.raises(GraphError, match="non-integer token 'x'"):
            parse_restricted_text(text, 10)

    _TOKENS = st.one_of(
        st.integers(-3, 40).map(str),
        st.sampled_from(["-0", "007", "-00", "1_0", "+3", "\u0663", "1-2", "-", "--1", "3x"]),
    )
    _SPACES = st.sampled_from([" ", "\t", "\n", "  ", "\r\n", "\x0b\x0c", "\u00a0", "\u2003", " \n\t"])

    @given(
        st.lists(st.tuples(_TOKENS, _SPACES), max_size=40),
        st.sampled_from(["", " ", "\n\t"]),
        st.integers(0, 40),
        st.integers(1, 12),
    )
    @settings(max_examples=400, deadline=None)
    def test_reader_agrees_with_the_whole_text_list(self, items, lead, n, chunk):
        # Small chunks put tokens and whitespace runs on every chunk edge.
        text = lead + "".join(tok + space for tok, space in items)
        with mock.patch.object(graphs, "_CHUNK", chunk):
            got = outcome(parse_restricted_text, text, n)
        assert got == outcome(reference_parse_restricted, text, n)

    @given(st.lists(st.integers(0, 30), max_size=40), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_duplicates_count_once(self, ids, chunk):
        text = " ".join(map(str, ids))
        with mock.patch.object(graphs, "_CHUNK", chunk):
            r = parse_restricted_text(text, 31)
        assert (r.members(), r.count) == (sorted(set(ids)), len(set(ids)))


# -- solutions as columns -----------------------------------------------------


def identity_instances():
    """The join-rooted random grid of ``test_output_identity`` plus its
    shape families, each with a join root, so every one has a solution."""
    seed = 0
    for n in GRID_SIZES:
        for bias in GRID_BIASES:
            for density in GRID_DENSITIES:
                seed += 1
                tree = random_cotree(n, bias, seed)
                tree.kind[tree.root] = JOIN
                yield tree, random_restricted(n, density, seed + 1000)
    for n in (1 << 10, 1 << 14):
        tree = perfect_join_cotree(n)
        yield tree, RestrictedSet.empty(n)
        yield tree, RestrictedSet(n, range(n))
    for bias in (0.2, 0.5, 0.8):
        tree = caterpillar_cotree(1000, bias, 5)
        tree.kind[tree.root] = JOIN
        yield tree, random_restricted(1000, 0.5, 6)


def test_solver_pairs_equal_the_eager_tuple_on_the_identity_grid():
    for tree, restricted in identity_instances():
        ctx = SolveContext(tree.leaf_count, restricted)
        root = ctx.run(tree)
        want = eager_pairs(ctx, root)
        solution = ctx.extract_solution(root)
        eager = MPDSolution(
            want, solution.k, solution.s, solution.f, solution.matched_number, solution.case_trace
        )
        assert format_solution(solution) == reference_format(eager)
        assert solution.vertex_set() == eager.vertex_set()
        assert solution.pairs == want
        assert solution.pairs is solution.pairs  # built once
        assert solution == eager and hash(solution) == hash(eager)


def hand_built(n: int, seed: int, base: int = 0) -> MPDSolution:
    """A matching over ``base .. base + n - 1`` with endpoints in random
    order and classes in any order, as a caller may build one."""
    rng = random.Random(seed)
    vertices = list(range(base, base + n))
    rng.shuffle(vertices)
    classes = list(EdgeClass)
    pairs = tuple(
        PairedEdge(vertices[i], vertices[i + 1], rng.choice(classes))
        for i in range(0, n - 1, 2)
        if rng.random() < 0.8
    )
    k = sum(p.cls is EdgeClass.FULL for p in pairs)
    s = sum(p.cls is EdgeClass.SEMI for p in pairs)
    return MPDSolution(pairs, k, s, len(pairs) - k - s, 2 * k + s)


class TestHandBuiltFormat:
    @pytest.mark.parametrize(
        "n, base",
        [(0, 0), (2, 0), (_SLOTS, 0), (3 * _SLOTS + 17, 0), (3 * _SLOTS + 17, -5000), (40, 10**12)],
    )
    def test_formats_as_before(self, n, base):
        solution = hand_built(n, n + base, base)
        assert format_solution(solution) == reference_format(solution)

    def test_from_edges_formats_as_before(self):
        n = 3 * _SLOTS
        rng = random.Random(3)
        vertices = list(range(n))
        rng.shuffle(vertices)
        edges = list(zip(vertices[::2], vertices[1::2]))
        solution = MPDSolution.from_edges(edges, random_restricted(n, 0.5, 4))
        assert format_solution(solution) == reference_format(solution)

    @pytest.mark.parametrize(
        "pairs",
        [
            [(1, 2), (3, 1)],
            [(4, 9), (9, 4)],
            [(0, 1), (0, 1)],
            [(5, 3 * _SLOTS), (3 * _SLOTS, 5 + _SLOTS), (5, 2 * _SLOTS)],
        ],
    )
    def test_shared_smaller_endpoint_is_rejected(self, pairs):
        rows = tuple(PairedEdge(u, v, EdgeClass.FREE) for u, v in pairs)
        solution = MPDSolution(rows, k=0, s=0, f=len(rows), matched_number=0)
        for fmt in (format_solution, reference_format):
            with pytest.raises(ValueError, match="^two pairs share their smaller endpoint$"):
                fmt(solution)


class TestSolutionObject:
    def solved(self) -> MPDSolution:
        return pairdom_solve("(* (+ 0 2) (+ 1 3))", [0, 1, 2])

    def test_frozen(self):
        solution = self.solved()
        for name in ("pairs", "k", "matched_number", "case_trace", "_us"):
            with pytest.raises(FrozenInstanceError):
                setattr(solution, name, None)
        with pytest.raises(FrozenInstanceError):
            del solution.k

    def test_keyword_construction_and_repr(self):
        pairs = (PairedEdge(0, 1, EdgeClass.FULL),)
        solution = MPDSolution(pairs=pairs, k=1, s=0, f=0, matched_number=2)
        assert solution.pairs is pairs
        assert repr(solution) == (
            "MPDSolution(pairs=(PairedEdge(u=0, v=1, cls=<EdgeClass.FULL: 'full'>),), "
            "k=1, s=0, f=0, matched_number=2, case_trace=None)"
        )

    def test_value_semantics(self):
        solution = self.solved()
        copy = pickle.loads(pickle.dumps(solution))
        assert copy == solution and hash(copy) == hash(solution)
        assert copy != MPDSolution(solution.pairs, solution.k, solution.s, solution.f, 0)
        assert format_solution(copy) == format_solution(solution)
        assert solution.vertex_set() == {0, 1, 2, 3}


def pairdom_solve(text: str, restricted) -> MPDSolution:
    from pairdom import solve

    return solve(parse_cotree(text), restricted)


# -- the CLI writes the text piece by piece ----------------------------------


@pytest.mark.parametrize("to_file", [True, False], ids=["output-file", "stdout"])
def test_cli_solve_text_equals_format_solution(tmp_path, capsys, to_file):
    n = 1 << 14  # four pieces of slots
    tree = perfect_join_cotree(n)
    ct = tmp_path / "t.ct"
    ct.write_text(serialize_cotree(tree) + "\n", encoding="utf-8")
    argv = ["solve", "--cotree", str(ct), "--restricted", "0,3,5,9000"]
    out = tmp_path / "sol.txt"
    assert main(argv + (["--output", str(out)] if to_file else [])) == 0
    got = out.read_text(encoding="utf-8") if to_file else capsys.readouterr().out
    want = reference_format(pairdom_solve(serialize_cotree(tree), [0, 3, 5, 9000]))
    assert got == want


# -- memory guard ------------------------------------------------------------

# tracemalloc peak of extraction plus format_solution on the perfect join of
# 2^16 leaves with every vertex restricted, counted from the stage's start.
# Measured 2.12 MB on CPython 3.11.7; the tuple rows, row dict and sorted
# keys that the columns replaced measured 6.44 MB.  The bound leaves
# 0.88 MB (about 40%) of margin.
OUTPUT_STAGE_BOUND_MB = 3.0


def test_output_stage_memory():
    n = 1 << 16
    ctx = SolveContext(n, RestrictedSet(n, range(n)))
    root = ctx.run(perfect_join_cotree(n))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        text = format_solution(ctx.extract_solution(root))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 2 + n // 2
    assert peak / 2**20 < OUTPUT_STAGE_BOUND_MB, f"output stage peaked at {peak / 2**20:.2f} MB"
