"""CLI surface: formats, exit codes, pipelines."""

from __future__ import annotations

import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import pairdom
from pairdom import (
    EdgeClass,
    GraphError,
    MPDSolution,
    PairedEdge,
    format_graph_text,
    materialize,
    parse_cotree,
    parse_graph_text,
    random_cotree,
    serialize_cotree,
)
from pairdom.cli import (
    EXIT_INPUT,
    EXIT_NO_SOLUTION,
    EXIT_NOT_COGRAPH,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    _build_parser,
    _parse_restricted_arg,
    format_solution,
    main,
    parse_solution_text,
)
from pairdom.adjacency import DEFAULT_EDGE_CAP
from pairdom.cotree import JOIN
from conftest import (
    NEGATIVE_HEADER_GRAPH_TEXTS,
    NON_NUMBER_GRAPH_TEXTS,
    cube_graph,
    path_graph,
)

SRC = str(Path(pairdom.__file__).resolve().parents[1])


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


@pytest.fixture
def k2_cotree(tmp_path):
    return write(tmp_path, "k2.ct", "(* 0 1)\n")


class TestSolve:
    def test_k2_both_restricted(self, k2_cotree, capsys):
        code = main(["solve", "--cotree", k2_cotree, "--restricted", "0,1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out == "beta 2\nkfs 1 0 0\npair 0 1 full\n"

    def test_graph_input_runs_recognition(self, tmp_path, capsys):
        g = write(tmp_path, "p4.g", format_graph_text(path_graph(4)))
        code = main(["solve", "--graph", g])
        out = capsys.readouterr().out
        assert code == EXIT_NOT_COGRAPH
        assert out == "p4 0 1 2 3\n"

    def test_union_has_no_solution(self, tmp_path, capsys):
        ct = write(tmp_path, "u2.ct", "(+ 0 1)\n")
        code = main(["solve", "--cotree", ct])
        out = capsys.readouterr().out
        assert code == EXIT_NO_SOLUTION
        assert "0 1" in out

    def test_malformed_input(self, tmp_path, capsys):
        ct = write(tmp_path, "bad.ct", "(* 0")
        code = main(["solve", "--cotree", ct])
        assert code == EXIT_INPUT

    def test_non_ascii_digit_label_names_its_position(self, tmp_path, capsys):
        ct = write(tmp_path, "bad.ct", "(* 0 \u00b2)")
        code = main(["solve", "--cotree", ct])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "error: unexpected character '\u00b2' (at position 5)\n"

    def test_non_id_restricted_token(self, k2_cotree, tmp_path, capsys):
        rs = write(tmp_path, "r.rs", "1_0\n")
        code = main(["solve", "--cotree", k2_cotree, "--restricted", rs])
        assert code == EXIT_INPUT
        assert "non-integer token '1_0'" in capsys.readouterr().err

    def test_output_file(self, k2_cotree, tmp_path):
        out_path = tmp_path / "sol.txt"
        code = main(["solve", "--cotree", k2_cotree, "--output", str(out_path)])
        assert code == EXIT_OK
        assert out_path.read_text().startswith("beta 0\nkfs 0 0 1\n")

    def test_cograph_graph_input_solves(self, tmp_path, capsys):
        g = materialize(parse_cotree("(* (+ 0 2) 1)"))
        gf = write(tmp_path, "p3.g", format_graph_text(g))
        code = main(["solve", "--graph", gf, "--restricted", "0,2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "beta 1" in out

    def test_tree_above_the_edge_cap_solves(self, tmp_path, capsys):
        # K_{8000,8000}: 64M edges, above the default materialization cap,
        # which solve never builds.
        half = 8000
        assert half * half > DEFAULT_EDGE_CAP
        left = " ".join(map(str, range(half)))
        right = " ".join(map(str, range(half, 2 * half)))
        ct = write(tmp_path, "kb.ct", f"(* (+ {left}) (+ {right}))\n")
        code = main(["solve", "--cotree", ct, "--restricted", f"0, {half}"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == f"beta 2\nkfs 1 0 0\npair 0 {half} full\n"

    @pytest.mark.parametrize("text, error", NON_NUMBER_GRAPH_TEXTS + NEGATIVE_HEADER_GRAPH_TEXTS)
    def test_graph_non_number_token(self, tmp_path, capsys, text, error):
        gf = write(tmp_path, "bad.g", text)
        code = main(["solve", "--graph", gf])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("spec", ["0,1", "0, 1", " 0 1 ", "1,\t0,"])
    def test_inline_restricted_list(self, k2_cotree, capsys, spec):
        assert _parse_restricted_arg(spec, 2).members() == [0, 1]
        code = main(["solve", "--cotree", k2_cotree, "--restricted", spec])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "beta 2\nkfs 1 0 0\npair 0 1 full\n"


class TestFormatSolution:
    def test_rows_ascend_by_smaller_endpoint(self):
        solution = MPDSolution(
            (
                PairedEdge(9, 2, EdgeClass.SEMI),
                PairedEdge(0, 11, EdgeClass.FREE),
                PairedEdge(4, 3, EdgeClass.FULL),
            ),
            k=1, s=1, f=1, matched_number=3,
        )
        assert format_solution(solution) == (
            "beta 3\nkfs 1 1 1\n"
            "pair 0 11 free\npair 2 9 semi\npair 3 4 full\n"
        )

    def test_shared_smaller_endpoint_is_rejected(self):
        pairs = (PairedEdge(1, 2, EdgeClass.FULL), PairedEdge(3, 1, EdgeClass.FULL))
        with pytest.raises(ValueError, match="smaller endpoint"):
            format_solution(MPDSolution(pairs, k=2, s=0, f=0, matched_number=4))


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [[], ["solve"], ["frobnicate"], ["solve", "--cotree", "t.ct", "--bogus"],
         ["solve", "--cotree", "t.ct", "--edge-cap", "5"], ["gen", "-n", "ten"],
         ["verify", "--cotree", "t.ct", "--solution", "s.txt", "--edge-cap", "5"],
         ["recognize", "--graph", "p3.g", "--edge-cap", "0"],
         ["oracle", "--cotree", "t.ct", "--edge-cap", "5"],
         ["oracle", "--cotree", "t.ct", "--reference-oracle"],
         ["oracle", "--graph", "g.g", "--reference-oracle"]],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_INPUT
        assert "usage: pairdom" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_OK
        assert "usage: pairdom" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, option, token", [
        (["gen", "-n", "1_0"], "-n", "1_0"),
        (["gen", "-n", "10", "--seed", "\u0661"], "--seed", "\u0661"),
        (["gen", "-n", "+10"], "-n", "+10"),
        (["bench", "--sizes", "20", "--repeats", "1_0"], "--repeats", "1_0"),
        (["bench", "--sizes", "20", "--seed", "+1"], "--seed", "+1"),
        (["oracle", "--cotree", "t.ct", "--max-n", "+3"], "--max-n", "+3"),
        (["oracle", "--cotree", "t.ct", "--max-n", "\u0661\u0666"], "--max-n", "\u0661\u0666"),
    ])
    def test_integer_options_take_number_tokens(self, capsys, argv, option, token):
        # The number rule of the text formats: ASCII digits after an optional '-'.
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"pairdom {argv[0]}: error: argument {option}: not a number token: {token!r}\n"
        )


def readme_cli_commands() -> list[str]:
    """The ``pairdom ...`` commands of README's CLI block: comments
    stripped, backslash continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI$.*?^```\n(.*?)^```$", readme, re.M | re.S).group(1)
    text = re.sub(r"\\\n", " ", re.sub(r"(^|\s)#.*", "", block))
    return [line.split(None, 1)[1] for line in text.splitlines() if line.startswith("pairdom ")]


@pytest.mark.parametrize("command", readme_cli_commands())
def test_readme_cli_example_parses(command):
    # A flag removed from the parser but left in README fails here.
    _build_parser().parse_args(shlex.split(command))


class TestVerify:
    def test_valid_solution_with_certificate(self, k2_cotree, tmp_path, capsys):
        sol = write(tmp_path, "sol.txt", "beta 2\nkfs 1 0 0\npair 0 1 full\n")
        code = main(
            ["verify", "--cotree", k2_cotree, "--restricted", "0,1", "--solution", sol]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "valid true" in out
        assert "certificate all-restricted-tight" in out

    def test_non_edge_pair(self, tmp_path, capsys):
        g = write(tmp_path, "p3.g", format_graph_text(path_graph(3)))
        sol = write(tmp_path, "sol.txt", "beta 0\nkfs 0 0 1\npair 0 2 free\n")
        code = main(["verify", "--graph", g, "--solution", sol])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY_FAILED
        assert "reason not-an-edge 0 2" in out

    def test_stale_header(self, k2_cotree, tmp_path, capsys):
        sol = write(tmp_path, "sol.txt", "beta 2\nkfs 0 1 0\npair 0 1 full\n")
        code = main(
            ["verify", "--cotree", k2_cotree, "--restricted", "0,1", "--solution", sol]
        )
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY_FAILED
        assert "reason stats-mismatch" in out

    @pytest.mark.parametrize("source", ["--cotree", "--graph"])
    @pytest.mark.parametrize("cotree, restricted, solution, out", [
        # A valid dominating matching whose one pair R makes full, under a
        # header that counts it as free.
        ("(* 0 1)", "0,1", "beta 0\nkfs 0 0 1\npair 0 1 free\n",
         "valid true\nkfs 1 0 0\nmatched 2\ncertificate all-restricted-tight\n"
         "reason wrong-class 0 1\nreason stats-mismatch\n"),
        # Two disjoint edges: a pair on one leaves the other undominated.
        ("(+ (* 0 1) (* 2 3))", "", "beta 0\nkfs 0 0 1\npair 0 1 free\n",
         "valid false\nkfs 0 0 1\nmatched 0\ncertificate none\nreason not-dominating\n"),
        # The report's reasons, then not-dominating, then one wrong-class
        # per in-range row in input order, endpoints as written.
        ("(+ (* 0 1 2 3) (* 4 5))", "0,1",
         "beta 3\nkfs 1 1 0\npair 3 2 semi\npair 9 0 full\npair 1 0 semi\npair 1 3 free\n",
         "valid false\nkfs 1 1 1\nmatched 2\ncertificate none\n"
         "reason bad-vertex 9 0\nreason vertex-reused 1\nreason vertex-reused 3\n"
         "reason not-dominating\n"
         "reason wrong-class 3 2\nreason wrong-class 1 0\nreason wrong-class 1 3\n"),
    ], ids=["wrong-class", "not-dominating", "order"])
    def test_every_reason_is_printed(
        self, tmp_path, capsys, source, cotree, restricted, solution, out
    ):
        if source == "--cotree":
            path = write(tmp_path, "t.ct", cotree + "\n")
        else:
            path = write(tmp_path, "t.g", format_graph_text(materialize(parse_cotree(cotree))))
        sol = write(tmp_path, "sol.txt", solution)
        code = main(["verify", source, path, "--restricted", restricted, "--solution", sol])
        assert code == EXIT_VERIFY_FAILED
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize(
        "text, error",
        [
            ("pair 0 1 full\n", "missing the beta/kfs headers"),
            ("beta 0\nkfs 0 0 1\npair 0 1 bogus\n", "solution line 3: cannot parse"),
            ("beta 0\nbeta 5\nkfs 0 0 1\npair 0 1 free\n", "solution line 2: repeated beta"),
            ("beta 0\nkfs 0 0 1\nkfs 0 0 1\npair 0 1 free\n", "solution line 3: repeated kfs"),
            ("beta \u0661\nkfs 0 0 1\npair 0 1 free\n", "solution line 1: cannot parse"),
            ("beta 0\nkfs 0 0 1\npair \u0661 2 semi\n", "solution line 3: cannot parse"),
        ],
        ids=["missing-header", "bad-class", "repeated-beta", "repeated-kfs",
             "non-ascii-beta", "non-ascii-endpoint"],
    )
    def test_malformed_solution_file(self, k2_cotree, tmp_path, capsys, text, error):
        sol = write(tmp_path, "sol.txt", text)
        code = main(["verify", "--cotree", k2_cotree, "--solution", sol])
        assert code == EXIT_INPUT
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0661", "1" * 5000])
    @pytest.mark.parametrize(
        "line, template",
        [(1, "beta {}\nkfs 0 0 1\n"), (2, "beta 0\nkfs 0 {} 1\n"),
         (3, "beta 0\nkfs 0 0 1\npair {} 1 free\n")],
        ids=["beta", "kfs", "pair"],
    )
    def test_solution_non_number_token(self, line, template, token):
        with pytest.raises(GraphError) as err:
            parse_solution_text(template.format(token))
        assert str(err.value).startswith(f"solution line {line}: cannot parse")

    def test_tree_above_the_edge_cap_verifies(self, tmp_path, capsys):
        # K_{8000,8000}: 64M edges; verify checks the tree without them.
        half = 8000
        assert half * half > DEFAULT_EDGE_CAP
        left = " ".join(map(str, range(half)))
        right = " ".join(map(str, range(half, 2 * half)))
        ct = write(tmp_path, "kb.ct", f"(* (+ {left}) (+ {right}))\n")
        sol = write(tmp_path, "sol.txt", f"beta 2\nkfs 1 0 0\npair 0 {half} full\n")
        code = main(["verify", "--cotree", ct, "--restricted", f"0, {half}", "--solution", sol])
        assert code == EXIT_OK
        assert capsys.readouterr().out == (
            "valid true\nkfs 1 0 0\nmatched 2\ncertificate all-restricted-tight\n"
        )

    @pytest.mark.parametrize(
        "rows",
        [None, "beta 9\nkfs 9 9 9\n", "pair 0 1 full\n", "pair 4 4 free\n",
         "pair 3 12 free\n", "pair -1 2 semi\n", "pair 2 5 semi\npair 5 7 free\n", "drop"],
        ids=["solved", "stale", "extra", "self", "range", "negative", "reused", "dropped"],
    )
    def test_cotree_and_graph_input_agree(self, tmp_path, capsys, rows):
        tree = random_cotree(12, 0.4, 21)
        tree.kind[tree.root] = JOIN
        ct = write(tmp_path, "t.ct", serialize_cotree(tree) + "\n")
        g = write(tmp_path, "t.g", format_graph_text(materialize(tree)))
        rs = "0,2,5,7,8"
        sol = tmp_path / "sol.txt"
        assert main(["solve", "--cotree", ct, "--restricted", rs, "--output", str(sol)]) == 0
        text = sol.read_text()
        if rows == "drop":
            text = "".join(text.splitlines(keepends=True)[:-1])
        elif rows is not None:
            text += rows
        sol.write_text(text)
        outcomes = []
        for source in (["--cotree", ct], ["--graph", g]):
            code = main(["verify", *source, "--restricted", rs, "--solution", str(sol)])
            outcomes.append((code, capsys.readouterr().out))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][0] == EXIT_OK) == (rows is None)


class TestOracle:
    def test_gamma_p_cube(self, tmp_path, capsys):
        g = write(tmp_path, "q3.g", format_graph_text(cube_graph()))
        code = main(["oracle", "--graph", g, "--gamma-p"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "gamma_p 4\n"

    def test_k3_all_restricted(self, tmp_path, capsys):
        ct = write(tmp_path, "k3.ct", "(* 0 (* 1 2))\n")
        code = main(["oracle", "--cotree", ct, "--restricted", "0,1,2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("beta 2 fmin 0\n")

    def test_k2_empty_restricted(self, k2_cotree, capsys):
        code = main(["oracle", "--cotree", k2_cotree])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("beta 0 fmin 1\n")

    def test_cap_exceeded(self, tmp_path, capsys):
        g = write(tmp_path, "big.g", format_graph_text(path_graph(20)))
        code = main(["oracle", "--graph", g])
        assert code == EXIT_INPUT

    def test_tree_above_the_cap_is_rejected_before_materializing(
        self, tmp_path, capsys, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise AssertionError("materialize called")

        monkeypatch.setattr("pairdom.adjacency.materialize", fail)
        ct = write(tmp_path, "t.ct", f"(* {' '.join(map(str, range(17)))})\n")
        code = main(["oracle", "--cotree", ct])
        assert code == EXIT_INPUT
        assert "graph has 17 vertices, exhaustive cap is 16" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--max-n", "-1"], ["--max-n=-3"], ["--max-n", "0"]])
    def test_cap_below_one_is_a_usage_error(self, tmp_path, capsys, argv):
        g = write(tmp_path, "k1.g", "p 1 0\n")
        with pytest.raises(SystemExit) as err:
            main(["oracle", "--graph", g, *argv])
        assert err.value.code == EXIT_INPUT
        cap = argv[-1].rpartition("=")[2]
        assert capsys.readouterr().err.endswith(
            f"pairdom oracle: error: argument --max-n: must be at least 1, got {cap}\n"
        )

    def test_cap_of_one_runs(self, tmp_path, capsys):
        g = write(tmp_path, "k1.g", "p 1 0\n")
        assert main(["oracle", "--graph", g, "--max-n", "1"]) == EXIT_NO_SOLUTION
        assert capsys.readouterr().out == "no-solution isolated 0\n"


class TestEmptyGraph:
    """``p 0 0`` has no cotree, so it is malformed input (exit 1) for every
    command that answers for a graph, and for the library calls behind them."""

    MESSAGE = "the empty graph is not an instance: it has no cotree"

    @pytest.mark.parametrize(
        "argv",
        [["solve"], ["oracle"], ["oracle", "--gamma-p"], ["recognize"]],
        ids=["solve", "oracle", "oracle-gamma-p", "recognize"],
    )
    def test_every_command_exits_1(self, tmp_path, capsys, argv):
        g = write(tmp_path, "empty.g", "p 0 0\n")
        assert main([*argv, "--graph", g]) == EXIT_INPUT
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {self.MESSAGE}\n")

    def test_verify_exits_1(self, tmp_path, capsys):
        g = write(tmp_path, "empty.g", "p 0 0\n")
        sol = write(tmp_path, "empty.sol", "beta 0\nkfs 0 0 0\n")
        assert main(["verify", "--graph", g, "--solution", sol]) == EXIT_INPUT
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {self.MESSAGE}\n")

    @pytest.mark.parametrize(
        "call",
        [
            pairdom.recognize,
            lambda g: pairdom.oracle_canonical(g, pairdom.RestrictedSet.empty(0)),
            pairdom.oracle_paired_domination_number,
            lambda g: pairdom.verify_solution(g, pairdom.RestrictedSet.empty(0), []),
        ],
        ids=[
            "recognize",
            "oracle_canonical",
            "oracle_paired_domination_number",
            "verify_solution",
        ],
    )
    def test_library_agrees(self, call):
        with pytest.raises(GraphError) as err:
            call(parse_graph_text("p 0 0\n"))
        assert str(err.value) == self.MESSAGE


class TestGen:
    def test_single_leaf(self, capsys):
        code = main(["gen", "-n", "1", "--seed", "7"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "0\n"

    def test_all_join_is_complete(self, capsys):
        code = main(["gen", "-n", "100", "--join-bias", "1.0", "--seed", "1"])
        assert code == EXIT_OK
        tree = parse_cotree(capsys.readouterr().out)
        g = materialize(tree)
        assert g.m == 100 * 99 // 2

    def test_deterministic(self, capsys):
        main(["gen", "-n", "30", "--seed", "5", "--density", "0.5"])
        first = capsys.readouterr().out
        main(["gen", "-n", "30", "--seed", "5", "--density", "0.5"])
        assert capsys.readouterr().out == first

    def test_file_outputs(self, tmp_path):
        ct = tmp_path / "t.ct"
        rs = tmp_path / "t.rs"
        code = main(
            ["gen", "-n", "12", "--seed", "3", "--density", "0.4",
             "--out-cotree", str(ct), "--out-restricted", str(rs)]
        )
        assert code == EXIT_OK
        tree = parse_cotree(ct.read_text())
        assert tree.leaf_count == 12
        ids = [int(t) for t in rs.read_text().split()]
        assert all(0 <= v < 12 for v in ids)


class TestRecognize:
    def test_c4(self, tmp_path, capsys):
        text = "p 4 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"
        g = write(tmp_path, "c4.g", text)
        code = main(["recognize", "--graph", g])
        out = capsys.readouterr().out.strip()
        assert code == EXIT_OK
        assert materialize(parse_cotree(out)).edges() == parse_graph_text(text).edges()

    def test_p4_witness(self, tmp_path, capsys):
        g = write(tmp_path, "p4.g", format_graph_text(path_graph(4)))
        code = main(["recognize", "--graph", g])
        out = capsys.readouterr().out
        assert code == EXIT_NOT_COGRAPH
        assert out == "p4 0 1 2 3\n"

    def test_k2(self, tmp_path, capsys):
        g = write(tmp_path, "k2.g", "p 2 1\ne 0 1\n")
        code = main(["recognize", "--graph", g])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "(* 0 1)\n"


class TestBench:
    def test_format(self, capsys):
        code = main(["bench", "--sizes", "100,1000", "--repeats", "2", "--seed", "4"])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert out[0] == "n,seed,solve_ns,pairs,beta"
        data = [line for line in out[1:] if not line.startswith("ratio")]
        ratios = [line for line in out[1:] if line.startswith("ratio")]
        assert len(data) == 4  # 2 sizes x 2 repeats
        assert len(ratios) == 1
        assert ratios[0].startswith("ratio,100:1000,")

    def test_rows_are_deterministic_apart_from_time(self, capsys):
        main(["bench", "--sizes", "200", "--repeats", "3", "--seed", "9"])
        out = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in out[1:]]
        assert {(r[0], r[3], r[4]) for r in rows} == {("200", rows[1][3], rows[1][4])}


    def test_no_solution_exits_2(self, capsys):
        # random_cotree(10, 0.5, 0) leaves vertices 1 and 4 isolated.
        code = main(["bench", "--sizes", "10", "--repeats", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_NO_SOLUTION
        assert captured.out == "no-solution isolated 1 4\n"
        assert captured.err == ""

    @pytest.mark.parametrize("argv", [["--repeats", "-1"], ["--repeats=-3"], ["--repeats", "0"]])
    def test_repeats_below_one_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--sizes", "10", *argv])
        assert err.value.code == EXIT_INPUT
        repeats = argv[-1].rpartition("=")[2]
        assert capsys.readouterr().err.endswith(
            f"pairdom bench: error: argument --repeats: must be at least 1, got {repeats}\n"
        )

    @pytest.mark.parametrize("sizes, error", [
        ("", "needs sizes of at least 1, got ''"),
        (",,", "needs sizes of at least 1, got ',,'"),
        ("10,0", "needs sizes of at least 1, got '10,0'"),
        ("--sizes=-5", "needs sizes of at least 1, got '-5'"),
        ("10,x", "not a number token: 'x'"),
        ("1_0", "not a number token: '1_0'"),
        ("10, 20", "not a number token: ' 20'"),
    ])
    def test_bad_sizes_are_a_usage_error(self, capsys, sizes, error):
        argv = [sizes] if sizes.startswith("--") else ["--sizes", sizes]
        with pytest.raises(SystemExit) as err:
            main(["bench", *argv, "--repeats", "1"])
        assert err.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"pairdom bench: error: argument --sizes: {error}\n")


class TestImports:
    # Modules that only some commands run: the explicit-graph code, the
    # solver, the diagnostics, the oracle, the generators and the modules
    # behind their imports (``dataclasses`` pulls in ``inspect``, ``ast``
    # and ``dis``).  ``random`` cannot be watched here: a site ``.pth`` hook
    # may load it in every interpreter before ``pairdom`` runs, so
    # ``test_cotree_does_not_import_random`` checks the module instead.
    WATCHED = (
        "dataclasses",
        "inspect",
        "pairdom.adjacency",
        "pairdom.diagnostics",
        "pairdom.oracle",
        "pairdom.shapes",
        "pairdom.solver",
        "statistics",
    )

    def run_cli(self, tmp_path, argv: list[str]) -> tuple[int, list[str]]:
        """Run ``python -m pairdom.cli *argv`` in a fresh interpreter (this
        one has imported everything already); its exit code and the watched
        modules it loaded."""
        script = (
            "import runpy, sys\n"
            f"sys.argv = ['pairdom', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('pairdom.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            f"print(code, *sorted(set({self.WATCHED!r}) & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stderr
        code, *loaded = proc.stdout.splitlines()[-1].split()
        return int(code), loaded

    def test_verify_imports_neither_solver_nor_oracle(self, tmp_path):
        ct = write(tmp_path, "k2.ct", "(* 0 1)\n")
        sol = write(tmp_path, "k2.sol", "beta 2\nkfs 1 0 0\npair 0 1 full\n")
        argv = ["verify", "--cotree", ct, "--restricted", "0,1", "--solution", sol]
        assert self.run_cli(tmp_path, argv) == (EXIT_OK, [])

    def test_solve_does_not_import_the_diagnostics(self, tmp_path):
        ct = write(tmp_path, "k2.ct", "(* 0 1)\n")
        out = tmp_path / "k2.sol"
        argv = ["solve", "--cotree", ct, "--restricted", "0,1", "--output", str(out)]
        assert self.run_cli(tmp_path, argv) == (EXIT_OK, ["pairdom.solver"])
        assert out.read_text() == "beta 2\nkfs 1 0 0\npair 0 1 full\n"

    @pytest.mark.parametrize("argv", [["gen", "-n", "5", "--density", "0.5"], ["--help"]])
    def test_gen_and_help_load_none_of_the_command_code(self, tmp_path, argv):
        # Of the watched modules, gen loads only its generators.
        want = ["pairdom.shapes"] if argv[0] == "gen" else []
        assert self.run_cli(tmp_path, argv) == (EXIT_OK, want)

    def test_cotree_does_not_import_random(self):
        assert "random" not in vars(pairdom.cotree)

    def test_summary_view_loads_from_the_package(self):
        from pairdom.diagnostics import SummaryView

        assert pairdom.SummaryView is SummaryView

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from pairdom import *", namespace)
        assert set(pairdom.__all__) <= set(namespace)
        assert namespace["solve"] is pairdom.solver.solve

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            pairdom.nope

    def test_every_public_name_resolves(self):
        for name in pairdom.__all__:
            getattr(pairdom, name)

    def test_every_lazy_entry_names_an_attribute_of_its_module(self):
        for name, module in pairdom._LAZY.items():
            assert hasattr(importlib.import_module(f"pairdom.{module}"), name), (name, module)

    def test_package_import_loads_no_submodule(self):
        # A fresh interpreter: this one has loaded every submodule already.
        script = (
            "import sys\n"
            "def loaded():\n"
            "    print(*sorted(m for m in sys.modules if m.startswith('pairdom.')))\n"
            "import pairdom\n"
            "loaded()\n"
            "from pairdom import Cotree\n"
            "loaded()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "\npairdom.cotree pairdom.graphs\n"


class TestPipeline:
    def test_solve_then_verify(self, tmp_path, capsys):
        ct = tmp_path / "t.ct"
        rs = tmp_path / "t.rs"
        main(["gen", "-n", "40", "--seed", "11", "--density", "0.6", "--join-bias", "0.7",
              "--out-cotree", str(ct), "--out-restricted", str(rs)])
        capsys.readouterr()
        sol = tmp_path / "sol.txt"
        code = main(["solve", "--cotree", str(ct), "--restricted", str(rs),
                     "--output", str(sol)])
        if code == EXIT_NO_SOLUTION:
            pytest.skip("generated instance had isolated vertices")
        assert code == EXIT_OK
        code = main(["verify", "--cotree", str(ct), "--restricted", str(rs),
                     "--solution", str(sol)])
        assert code == EXIT_OK
