#!/usr/bin/env python3
"""In-process A/B timing of ``parse_cotree``, ``solve()``,
``format_solution`` and ``verify_on_tree`` between two ``pairdom`` source
trees.

    python3 tools/ab_solve.py ../base/src/pairdom [src/pairdom]

The rounds run in two child processes, one after the other.  Each child
loads both trees under their own package names, the first child copy a
first and the second child copy b first, so that pooling the two cancels
the edge a process gives the copy it loads first.  On the library instances
of perfbench's two workloads (``perfbench/instances.py``, seed 1), each
child times 20 rounds per copy of perfbench's text op, call by call with
``time.process_time``: ``parse_cotree`` of the workload's text, ``solve()``
of that tree and ``format_solution`` of the result, in an order that flips
every round, then ``verify_on_tree`` of that tree on the solved pairs.  Its
first round checks that the copies return the same arena (kinds compared as
lists, whatever sequence each copy stores them in), the same pairs, the same
text and the same report.  After the timed rounds, each child makes one
untimed ``tracemalloc`` pass per copy and workload: the bytes per leaf that
the parsed tree holds, and the traced peaks of ``solve()`` and of
``verify_on_tree`` above what was allocated before each, which RSS layout
noise does not blur.  Prints, per
workload and timed call, each child's medians, per-round ratio and the
second copy's wins, then the pooled ones, then each child's memory readings.
"""

import importlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 20  # per child
# workload -> (family, leaves, shape seed) of perfbench's library instance
WORKLOADS = {"perfect-join-rv": ("perfect", 2**18, 0), "random-262k": ("random", 2**18, 0)}
CALLS = ("parse_cotree", "solve", "format_solution", "verify_on_tree")


def child(first: str, trees: list[Path]) -> None:
    """Time the rounds with copy ``first`` loaded first; print the times of
    copies a and b per workload and call as one JSON line."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from instances import make_restricted, make_tree
    from pairdom import serialize_cotree

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        mods = [None, None]
        for i in (0, 1) if first == "a" else (1, 0):
            name = "pairdom_" + "ab"[i]
            shutil.copytree(trees[i], Path(tmp, name), ignore=shutil.ignore_patterns("__pycache__"))
            mods[i] = importlib.import_module(name)
            importlib.import_module(name + ".cli")
        out = {}
        for workload, (family, n, shape_seed) in WORKLOADS.items():
            tree_text = serialize_cotree(make_tree(family, n, shape_seed, 1))
            members = make_restricted(family, n, 1).members()
            sets = [mod.RestrictedSet(n, members) for mod in mods]
            times = {call: [[], []] for call in CALLS}
            for rnd in range(ROUNDS):
                outputs = []
                for i in (0, 1) if rnd % 2 == 0 else (1, 0):
                    start = time.process_time()
                    tree = mods[i].parse_cotree(tree_text)
                    parsed = time.process_time()
                    sol = mods[i].solve(tree, sets[i])
                    solved = time.process_time()
                    text = mods[i].cli.format_solution(sol)
                    formatted = time.process_time()
                    pairs = sol.pairs
                    listed = time.process_time()
                    report = mods[i].verify_on_tree(tree, sets[i], pairs)
                    times["parse_cotree"][i].append(parsed - start)
                    times["solve"][i].append(solved - parsed)
                    times["format_solution"][i].append(formatted - solved)
                    times["verify_on_tree"][i].append(time.process_time() - listed)
                    if rnd == 0:
                        outputs.append(((list(tree.kind), tree._a),
                                        [(p.u, p.v, p.cls.value) for p in pairs], text,
                                        (*report[:-2], report.certificate.value, report.problems)))
                    del tree, sol, text, pairs, report
                if rnd == 0 and outputs[0] != outputs[1]:
                    raise SystemExit(f"{workload}: the two copies disagree")
            out[workload] = {**times, "memory": [memory(mod, tree_text, sets[i], n)
                                                  for i, mod in enumerate(mods)]}
            del tree_text, sets
    print(json.dumps(out))


def memory(mod, tree_text: str, restricted, n: int) -> tuple[float, float, float]:
    """The bytes per leaf of ``mod``'s parsed tree, and the traced peaks in
    MB of ``solve()`` and of ``verify_on_tree`` on its pairs above what was
    allocated before each, from one untimed pass."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = mod.parse_cotree(tree_text)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solution = mod.solve(tree, restricted)
        solve_peak = tracemalloc.get_traced_memory()[1] - held
        pairs = solution.pairs
        solved = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mod.verify_on_tree(tree, restricted, pairs)
        verify_peak = tracemalloc.get_traced_memory()[1] - solved
    finally:
        tracemalloc.stop()
    return (held - before) / n, solve_peak / 1e6, verify_peak / 1e6


def summary(times: list[list[float]]) -> str:
    """Each copy's median, the median of b's time over a's within a round
    (which host drift between rounds or children does not move), and b's
    wins."""
    a, b = times
    ratio = statistics.median(y / x for x, y in zip(a, b))
    wins = sum(y < x for x, y in zip(a, b))
    return (f"a {statistics.median(a):.3f} s, b {statistics.median(b):.3f} s, "
            f"b/a per round {ratio - 1:+.1%}, b faster in {wins}/{len(a)} rounds")


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], [Path(p) for p in sys.argv[3:]])
        return
    if not 2 <= len(sys.argv) <= 3:
        raise SystemExit(__doc__)
    trees = [sys.argv[1], sys.argv[2] if len(sys.argv) == 3 else str(ROOT / "src" / "pairdom")]
    halves = {}
    for first in "ab":
        proc = subprocess.run([sys.executable, __file__, "--child", first, *trees],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode:
            raise SystemExit(proc.returncode)
        halves[first] = json.loads(proc.stdout)
    for workload in WORKLOADS:
        for call in CALLS:
            for first in "ab":
                print(f"{workload} {call}, {first} loaded first: "
                      f"{summary(halves[first][workload][call])}")
            pooled = [halves["a"][workload][call][i] + halves["b"][workload][call][i]
                      for i in (0, 1)]
            print(f"{workload} {call}, pooled: {summary(pooled)}")
        for first in "ab":
            print(f"{workload} memory, {first} loaded first: " + "; ".join(
                f"{copy} parsed tree {per_leaf:.1f} B/leaf, solve() peak {solve_peak:.1f} MB, "
                f"verify_on_tree peak {verify_peak:.1f} MB"
                for copy, (per_leaf, solve_peak, verify_peak)
                in zip("ab", halves[first][workload]["memory"])))

if __name__ == "__main__":
    main()
