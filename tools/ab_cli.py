#!/usr/bin/env python3
"""Paired A/B timing of ``pairdom solve`` and ``pairdom verify`` processes
between two ``pairdom`` source trees: the CLI counterpart of
``tools/ab_solve.py``.

    python3 tools/ab_cli.py ../base/src/pairdom [src/pairdom]

On the CLI instances of perfbench's two workloads (``perfbench/run.py``,
seed 1), each round runs, per workload, one
``python -m pairdom.cli solve --cotree`` child of each tree, then one
``verify --cotree`` child of each on the solution that tree wrote; the two
trees run in the opposite order to the round before.  A child's CPU time
(user plus system) is read from its resource usage when it is reaped, and
its peak RSS is polled from its own ``VmHWM``, as perfbench polls it,
because the resource usage of a spawned child also counts this process's
pages before the ``exec``.  The two trees' solution files and verify output
must be byte-identical.  Prints whether ``PYTHONDONTWRITEBYTECODE`` is set
(without it the children load cached bytecode and compile nothing), then,
per tree and command, the code tokens of the ``pairdom`` modules the child
loads (what it compiles without cached bytecode), counted as
``tests/test_source_size.py`` counts them, then, per workload and command,
the median and quartiles of the per-round CPU-time ratio b/a, b's wins and
each tree's median child peak RSS.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 41
SEED = 1
# workload -> (family, leaves, shape seed) of perfbench's CLI instance
WORKLOADS = {"perfect-join-rv": ("perfect", 2**11, 0), "random-262k": ("random", 3000, 13)}
COMMANDS = ("solve", "verify")
# Run as ``python -c PROBE <names file> <command args>``: runs the CLI as
# ``python -m pairdom.cli`` does, with ``cli.py`` as ``__main__``, then
# writes the names of the other ``pairdom`` modules it loaded.
PROBE = """\
import runpy, sys
out, sys.argv = sys.argv[1], ["pairdom", *sys.argv[2:]]
try:
    runpy.run_module("pairdom.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
with open(out, "w", encoding="ascii") as fh:
    fh.write(" ".join(name for name in sys.modules if name.split(".")[0] == "pairdom"))
"""


def write_instances(work: Path) -> None:
    """Each workload's cotree and restricted-set files, as perfbench writes
    them."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from instances import make_restricted, make_tree
    from pairdom import format_restricted_text, serialize_cotree

    for workload, (family, n, shape_seed) in WORKLOADS.items():
        tree = make_tree(family, n, shape_seed, SEED)
        Path(work, f"{workload}.ct").write_text(serialize_cotree(tree) + "\n", encoding="utf-8")
        Path(work, f"{workload}.rs").write_text(
            format_restricted_text(make_restricted(family, n, SEED)), encoding="utf-8")


def command_args(workload: str, command: str, work: Path, sol: Path) -> list[str]:
    """Arguments of ``command`` on the workload's instance; solve writes
    ``sol`` and verify reads it."""
    ct, rs = str(work / f"{workload}.ct"), str(work / f"{workload}.rs")
    flag = "--output" if command == "solve" else "--solution"
    return [command, "--cotree", ct, "--restricted", rs, flag, str(sol)]


def loaded_modules(src: Path, work: Path, args: list[str]) -> dict[str, Path]:
    """The ``pairdom`` modules that ``pairdom *args`` loads from ``src``,
    ``cli.py`` included: name to source file."""
    names_file = work / "modules.txt"
    subprocess.run([sys.executable, "-c", PROBE, str(names_file), *args], cwd=work, check=True,
                   env={**os.environ, "PYTHONPATH": str(src)}, stdout=subprocess.DEVNULL)
    files = {}
    for name in sorted(set(names_file.read_text(encoding="ascii").split()) | {"pairdom.cli"}):
        path = src.joinpath(*name.split("."))
        files[name] = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    return files


def run_child(src: Path, work: Path, args: list[str], out: Path) -> tuple[float, int]:
    """Run ``python -m pairdom.cli *args`` with ``src`` as its import path
    and stdout to ``out``; its CPU seconds and peak RSS in KB."""
    with open(out, "wb") as fh:
        child = subprocess.Popen([sys.executable, "-m", "pairdom.cli", *args], cwd=work,
                                 env={**os.environ, "PYTHONPATH": str(src)}, stdout=fh)
    peak = 0
    status_path = f"/proc/{child.pid}/status"
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        try:
            with open(status_path, encoding="ascii") as status_file:
                for line in status_file:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            pass
        time.sleep(0.002)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit(f"pairdom {' '.join(args)} ({src}) exited {child.returncode}")
    return usage.ru_utime + usage.ru_stime, peak


def main() -> None:
    if not 2 <= len(sys.argv) <= 3:
        raise SystemExit(__doc__)
    packages = [sys.argv[1], sys.argv[2] if len(sys.argv) == 3 else str(ROOT / "src" / "pairdom")]
    srcs = [Path(p).resolve().parent for p in packages]
    no_pyc = os.environ.get("PYTHONDONTWRITEBYTECODE")
    print(f"PYTHONDONTWRITEBYTECODE is {'set to ' + repr(no_pyc) if no_pyc else 'not set'}")
    cpu = {(w, c): ([], []) for w in WORKLOADS for c in COMMANDS}
    rss = {(w, c): ([], []) for w in WORKLOADS for c in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_instances(work)
        sys.path.insert(0, str(ROOT / "tests"))
        from test_source_size import code_tokens

        for i, tree in enumerate("ab"):
            for command in COMMANDS:
                args = command_args(next(iter(WORKLOADS)), command, work, work / "probe.txt")
                files = loaded_modules(srcs[i], work, args)
                print(f"{tree} {command} --cotree: {sum(map(code_tokens, files.values()))} "
                      f"code tokens in {' '.join(files)}")
        for rnd in range(ROUNDS):
            order = (0, 1) if rnd % 2 == 0 else (1, 0)
            for workload in WORKLOADS:
                for command in COMMANDS:
                    outputs = []
                    for i in order:
                        sol, stdout = work / f"solution-{i}.txt", work / f"{command}-{i}.txt"
                        args = command_args(workload, command, work, sol)
                        seconds, peak = run_child(srcs[i], work, args, stdout)
                        cpu[workload, command][i].append(seconds)
                        rss[workload, command][i].append(peak)
                        outputs.append((sol if command == "solve" else stdout).read_bytes())
                    if outputs[0] != outputs[1]:
                        raise SystemExit(f"{workload} {command}: the two trees' outputs differ")
    for (workload, command), (a, b) in cpu.items():
        ratios = [y / x for x, y in zip(a, b)]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        wins = sum(y < x for x, y in zip(a, b))
        peak_a, peak_b = (statistics.median(p) / 1024 for p in rss[workload, command])
        print(f"{workload} {command}: CPU a {statistics.median(a):.4f} s, "
              f"b {statistics.median(b):.4f} s; b/a per round median {median:.3f} "
              f"(quartiles {q1:.3f}-{q3:.3f}), b faster in {wins}/{len(a)} rounds; "
              f"peak RSS a {peak_a:.2f} MB, b {peak_b:.2f} MB")


if __name__ == "__main__":
    main()
