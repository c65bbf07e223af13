"""The benchmark's closed loop: set-up, ops, checks, and metric values.

Imported by ``run.py`` once ``src/`` is on the path.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path

from check import check_solution, closed_form_problems, parse_solution
from instances import make_restricted, make_tree
from pairdom import (
    SolveContext,
    format_restricted_text,
    materialize,
    parse_cotree,
    parse_restricted_text,
    serialize_cotree,
    solve,
    verify_solution,
)
from pairdom.cli import format_solution, parse_solution_text

SETUPS = 3
PROBES = 2
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "solve_s": "s",
    "text_solve_s": "s",
    "cli_solve_s": "s",
    "cli_verify_s": "s",
    "peak_rss_mb": "MB",
    "cli_peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "cotree.generate_s": "s",
    "cotree.serialize_s": "s",
    "cotree.parse_s": "s",
    "cotree.postorder_s": "s",
    "cotree.materialize_s": "s",
    "cotree.materialize_edges": "count",
    "solver.context_s": "s",
    "solver.fold_s": "s",
    "solver.extract_s": "s",
    "solver.pairs_created_per_vertex": "ratio",
    "solver.pairs_kept_ratio": "ratio",
    "graphs.parse_restricted_s": "s",
    "graphs.verify_s": "s",
    "cli.format_s": "s",
    "cli.parse_solution_s": "s",
    "cli.process_start_s": "s",
    "gc.pause_s": "s",
    "gc.gen2_collections": "count",
    "trace.overhead_s": "s",
}


class PeakRss(threading.Thread):
    """Polls a child's high-water RSS until ``stop`` is set or it exits."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.path = f"/proc/{pid}/status"
        self.stop = threading.Event()
        self.peak_kb = 0

    def run(self) -> None:
        while True:
            try:
                with open(self.path, encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            self.peak_kb = max(self.peak_kb, int(line.split()[1]))
            except OSError:
                return
            if self.stop.wait(0.005):
                return


class Bench:
    """One run of one workload; ``tracer`` is None for the untraced run.

    CLI children run in ``work`` with ``src`` as their import path.
    """

    def __init__(self, family: str, lib_shape: tuple[int, int], cli_shape: tuple[int, int],
                 seed: int, src: Path, work: Path, tracer) -> None:
        self.family, self.lib_shape, self.cli_shape = family, lib_shape, cli_shape
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        self.ct = work / "instance.ct"
        self.rs = work / "instance.rs"
        self.sol = work / "solution.txt"
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.hashes: dict[str, Counter] = defaultdict(Counter)
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.child_peaks: list[float] = []
        self.peak_rss_mb: float | None = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def op(self, op_id: str):
        return self.tracer.op(op_id) if self.tracer else nullcontext()

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Both instances, their texts and files, and one warm-up process."""
        family, seed = self.family, self.seed
        with self.span("cotree.generate"):
            self.tree = make_tree(family, *self.lib_shape, seed)
        with self.span("graphs.restricted"):
            self.restricted = make_restricted(family, self.tree.leaf_count, seed)
        with self.span("cotree.serialize"):
            self.tree_text = serialize_cotree(self.tree) + "\n"
        with self.span("graphs.format_restricted"):
            self.restricted_text = format_restricted_text(self.restricted)
        with self.span("cli.instance"):
            self.cli_tree = make_tree(family, *self.cli_shape, seed)
            self.cli_restricted = make_restricted(family, self.cli_tree.leaf_count, seed)
            self.ct.write_text(serialize_cotree(self.cli_tree) + "\n", encoding="utf-8")
            self.rs.write_text(format_restricted_text(self.cli_restricted), encoding="utf-8")
        with self.span("cli.warm_up"):
            _, proc, _ = self.spawn(["--help"])
            if proc.returncode != 0:
                raise RuntimeError(f"pairdom --help exited {proc.returncode}: {proc.stderr[-500:]}")

    def clear(self) -> None:
        self.tree = self.restricted = self.tree_text = self.restricted_text = None
        self.cli_tree = self.cli_restricted = None

    # -- processes -------------------------------------------------------------

    def spawn(self, args: list[str]) -> tuple[float, subprocess.CompletedProcess, float]:
        """Run ``python -m pairdom.cli *args``: seconds from spawn to exit,
        the finished process, and its peak RSS in MB.

        The peak is polled from the child's own ``VmHWM``, because a spawned
        child's rusage also counts this large process's pages before the
        ``exec``.
        """
        cmd = [sys.executable, "-m", "pairdom.cli", *args]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=self.work, env=self.env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            watch = PeakRss(child.pid)
            watch.start()
            try:
                out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
                elapsed = time.perf_counter() - t0
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise
            finally:
                watch.stop.set()
                watch.join()
        return elapsed, subprocess.CompletedProcess(cmd, child.returncode, out, err), \
            watch.peak_kb / 1024

    # -- checking --------------------------------------------------------------

    def check(self, instance: str, text: str) -> list[str]:
        """Checker verdict for one output; the verdict of a byte-identical
        output already checked in this run is reused.

        The worker's peak RSS is taken before the first check, so that it
        is the program's peak, not the checker's.
        """
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        digest = hashlib.sha256(text.encode()).hexdigest()
        key = (instance, digest)
        if key not in self.verdicts:
            if instance == "lib":
                tree, restricted = self.tree, self.restricted
            else:
                tree, restricted = self.cli_tree, self.cli_restricted
            problems = check_solution(tree, restricted.flags, text)
            if self.family == "perfect" and not problems:
                problems = closed_form_problems(text, tree.leaf_count)
            self.verdicts[key] = problems
        problems = list(self.verdicts[key])
        seen = self.hashes[instance]
        if seen and digest not in seen:
            problems.append(f"byte-identity: {instance} output {digest[:16]} differs from "
                            f"{next(iter(seen))[:16]}")
        seen[digest] += 1
        return problems

    def record(self, op: str, problems: list[str], **values: float) -> None:
        """Count one op; keep its metric values only when its output passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {op}: " + "; ".join(problems[:5]), file=sys.stderr)
            return
        for name, value in values.items():
            self.samples[name].append(value)

    def guarded(self, op: str, fn) -> None:
        """Run one op; an exception is that op's failure, not the run's."""
        try:
            fn()
        except Exception:  # noqa: BLE001 - one failed op must not end the run
            self.record(op, [traceback.format_exc(limit=3).strip()])

    # -- untraced ops ----------------------------------------------------------

    def text_op(self) -> None:
        """Text to text in process; its ``solve`` call is timed on its own."""
        t0 = time.perf_counter()
        tree = parse_cotree(self.tree_text)
        restricted = parse_restricted_text(self.restricted_text, tree.leaf_count)
        t1 = time.perf_counter()
        solution = solve(tree, restricted)
        t2 = time.perf_counter()
        out = format_solution(solution)
        t3 = time.perf_counter()
        self.record("text op", self.check("lib", out), text_solve_s=t3 - t0, solve_s=t2 - t1)

    def cli_pair(self) -> None:
        self.sol.unlink(missing_ok=True)
        elapsed, proc, peak = self.spawn(["solve", "--cotree", str(self.ct), "--restricted",
                                          str(self.rs), "--output", str(self.sol)])
        self.child_peaks.append(peak)
        if proc.returncode != 0:
            self.record("cli solve", [f"exit {proc.returncode}: {proc.stderr[-300:]}"])
            return
        text = self.sol.read_text(encoding="utf-8")
        problems = self.check("cli", text)
        self.record("cli solve", problems, cli_solve_s=elapsed)
        if problems:
            return
        beta, (k, s, f), _ = parse_solution(text)
        elapsed, proc, peak = self.spawn(["verify", "--cotree", str(self.ct), "--restricted",
                                          str(self.rs), "--solution", str(self.sol)])
        self.child_peaks.append(peak)
        want = ["valid true", f"kfs {k} {s} {f}", f"matched {beta}"]
        problems = []
        if proc.returncode != 0 or proc.stdout.splitlines()[:3] != want:
            problems.append(f"exit {proc.returncode}: {proc.stdout[:300]!r}")
        self.record("cli verify", problems, cli_verify_s=elapsed)

    # -- traced replays ----------------------------------------------------------

    def traced_text_op(self, op_id: str) -> None:
        span = self.span
        with self.op(op_id):
            with span("cotree.parse"):
                tree = parse_cotree(self.tree_text)
            with span("graphs.parse_restricted"):
                restricted = parse_restricted_text(self.restricted_text, tree.leaf_count)
            with span("solver.solve"):
                with span("solver.context"):
                    ctx = SolveContext(tree.leaf_count, restricted)
                with span("cotree.postorder"):
                    tree.postorder()
                with span("solver.run"):
                    root = ctx.run(tree)
                with span("solver.extract"):
                    solution = ctx.extract_solution(root)
            with span("cli.format"):
                out = format_solution(solution)
        self.counts["solver.pairs_created_per_vertex"].append(len(ctx.pu) / tree.leaf_count)
        self.counts["solver.pairs_kept_ratio"].append(len(solution.pairs) / len(ctx.pu))
        self.record("traced text op", self.check("lib", out))

    def read(self, path: Path) -> str:
        with self.span("cli.read"):
            return path.read_text(encoding="utf-8")

    def load(self):
        """The instance loading that the CLI's solve and verify both do."""
        text = self.read(self.ct)
        with self.span("cotree.parse"):
            tree = parse_cotree(text)
        with self.span("cotree.materialize"):
            graph = materialize(tree)
        text = self.read(self.rs)
        with self.span("graphs.parse_restricted"):
            restricted = parse_restricted_text(text, graph.n)
        self.counts["cotree.materialize_edges"].append(graph.m)
        return tree, graph, restricted

    def traced_cli_pair(self, i: int) -> None:
        """In-process replay of the calls `pairdom solve` and `pairdom verify` make."""
        span = self.span
        with self.op(f"cli-solve#{i}"):
            tree, _, restricted = self.load()
            with span("solver.solve"):
                solution = solve(tree, restricted)
            with span("cli.format"):
                out = format_solution(solution)
            with span("cli.write"):
                self.sol.write_text(out, encoding="utf-8")
        problems = self.check("cli", out)
        self.record("cli solve replay", problems)
        if problems:
            return
        with self.op(f"cli-verify#{i}"):
            _, graph, restricted = self.load()
            text = self.read(self.sol)
            with span("cli.parse_solution"):
                beta, kfs, pairs = parse_solution_text(text)
            with span("graphs.verify"):
                report = verify_solution(graph, restricted, pairs)
        stats = (report.matched_number, (report.k, report.s, report.f))
        ok = report.valid and stats == (beta, kfs)
        self.record("cli verify replay", [] if ok else [f"report {report}"])

    def probe(self, i: int) -> None:
        with self.op(f"probe#{i}"), self.span("cli.process_start"):
            proc = subprocess.run([sys.executable, "-c", "import pairdom.cli"], cwd=self.work,
                                  env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S)
        self.record("probe", [] if proc.returncode == 0 else [proc.stderr[-300:]])

    # -- main loop ---------------------------------------------------------------

    def run(self, seconds: float) -> None:
        setup_times = []
        for i in range(SETUPS):
            self.clear()
            t0 = time.perf_counter()
            with self.op(f"setup#{i}"):
                self.setup()
            setup_times.append(time.perf_counter() - t0)
        self.samples["setup_s"] = setup_times

        deadline = time.perf_counter() + seconds
        cycle = 0
        while cycle == 0 or time.perf_counter() < deadline:
            if self.tracer:
                # Alternate which text op goes first, so that neither always
                # inherits the other's garbage.
                ops = [lambda: self.traced_text_op(f"lib#{cycle}"), self.text_op]
                for fn in ops[::-1] if cycle % 2 else ops:
                    self.guarded("text op", fn)
                self.guarded("cli replay", lambda: self.traced_cli_pair(cycle))
                for j in range(PROBES):
                    self.guarded("probe", lambda: self.probe(cycle * PROBES + j))
            else:
                self.guarded("text op", self.text_op)
                self.guarded("cli pair", self.cli_pair)
            cycle += 1
        self.cycles = cycle

    def end_to_end(self) -> dict[str, float]:
        if self.peak_rss_mb is not None:
            self.samples["peak_rss_mb"] = [self.peak_rss_mb]
        if self.child_peaks:
            self.samples["cli_peak_rss_mb"] = [max(self.child_peaks)]
        return {name: self.samples[name] for name in END_TO_END}

    def per_layer(self) -> dict[str, list[float]]:
        """Per-op values of each layer metric, from the spans."""
        by_op = self.tracer.per_op()

        def per_op(prefix: str, name: str) -> list[float]:
            return [sum(spans[name]) for op, spans in by_op.items()
                    if op and op.startswith(prefix) and name in spans]

        def gc_per_op(select) -> list[float]:
            return [sum(select(name, times) for name, times in spans.items()
                        if name.startswith("gc.gen"))
                    for op, spans in by_op.items() if op and op.startswith("lib#")]

        lib_ops = [spans for op, spans in by_op.items() if op and op.startswith("lib#")]
        traced = [d for op, d in self.tracer.op_durations().items() if op.startswith("lib#")]
        untraced = self.samples["text_solve_s"]
        values = {
            "cotree.generate_s": per_op("setup#", "cotree.generate"),
            "cotree.serialize_s": per_op("setup#", "cotree.serialize"),
            "cotree.parse_s": per_op("lib#", "cotree.parse"),
            "cotree.postorder_s": per_op("lib#", "cotree.postorder"),
            "cotree.materialize_s": per_op("cli-", "cotree.materialize"),
            "solver.context_s": per_op("lib#", "solver.context"),
            "solver.fold_s": [sum(s["solver.run"]) - sum(s["cotree.postorder"]) for s in lib_ops],
            "solver.extract_s": per_op("lib#", "solver.extract"),
            "graphs.parse_restricted_s": per_op("lib#", "graphs.parse_restricted"),
            "graphs.verify_s": per_op("cli-verify#", "graphs.verify"),
            "cli.format_s": per_op("lib#", "cli.format"),
            "cli.parse_solution_s": per_op("cli-verify#", "cli.parse_solution"),
            "cli.process_start_s": per_op("probe#", "cli.process_start"),
            "gc.pause_s": gc_per_op(lambda name, times: sum(times)),
            "gc.gen2_collections": gc_per_op(
                lambda name, times: len(times) if name == "gc.gen2" else 0),
            "trace.overhead_s": ([statistics.median(traced) - statistics.median(untraced)]
                                 if traced and untraced else []),
            **self.counts,
        }
        return {name: values.get(name, []) for name in PER_LAYER}

    def gc_by_span(self) -> dict[str, tuple[float, int]]:
        """GC pause and gen-2 count of the library ops, by the span that was open."""
        spans = self.tracer.spans
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for name, start, end, parent, op in spans:
            if name.startswith("gc.gen") and op and op.startswith("lib#"):
                entry = out[spans[parent][0] if parent >= 0 else "-"]
                entry[0] += end - start
                entry[1] += name == "gc.gen2"
        return {k: (v[0], v[1]) for k, v in out.items()}
