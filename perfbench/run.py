#!/usr/bin/env python3
"""pairdom benchmark: one closed-loop caller, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload random-262k --seed 1 --seconds 40 --trace 0

Each workload pairs a library-size instance with a CLI-size instance of the
same tree family.  After set-up (done three times, median reported), one
caller repeats a cycle until ``--seconds`` have passed, and always completes
at least one cycle.  Each call waits for the previous one, and at most one
CLI child runs at a time.

``--trace 0`` cycle: one in-process text op (cotree text and restricted text
to solution text, its ``solve()`` call timed on its own), then one
``python -m pairdom.cli solve`` process followed by one ``verify`` process.

``--trace 1`` cycle: the text op's public calls replayed under spans
(``solve()`` split into ``SolveContext`` / ``run`` / ``extract_solution``,
plus a standalone ``postorder``), one untraced text op for the tracing
overhead, an in-process replay of the calls the CLI ``solve`` and ``verify``
commands make, and process-start probes.  Spans and a host stamp go to
``.perfbench/trace-<workload>-seed<seed>.json``.

Human-readable lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# workload -> (tree family, (leaves, shape seed) of the library-op
# instance, the same of the CLI-op instance)
WORKLOADS = {
    # Criterion-6 family (random_cotree, join bias 0.5, density 0.5, shape
    # seed 0 as criterion 6 uses): a mix of union leaf fast paths and joins.
    # 2^18 leaves rather than 10^6, so that a run holds several ops.
    # The CLI instance has 3000 leaves, the size of the `pairdom gen -n 3000`
    # files; shape seed 13 has the median edge count of seeds 0-39 (2.15M),
    # and materialize is most of each CLI process.
    "random-262k": ("random", (2**18, 0), (3000, 13)),
    # Join worst case: every join spills both sides, log2(n)/2 pairs are
    # created per vertex and union paths never fire.  Closed-form answer.
    # The CLI instance, K_2048, has about as many edges as the random one.
    "perfect-join-rv": ("perfect", (2**18, 0), (2**11, 0)),
}


def git_tree_id(path: Path) -> str:
    """Git's tree id of ``path`` (``git rev-parse HEAD:src`` when clean),
    skipping byte-code caches."""
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__" or child.suffix == ".pyc":
            continue
        name = child.name.encode()
        if child.is_dir():
            entries.append((name + b"/", b"40000 " + name + b"\0" + bytes.fromhex(git_tree_id(child))))
        else:
            data = child.read_bytes()
            mode = b"100755" if os.access(child, os.X_OK) else b"100644"
            blob = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
            entries.append((name, mode + b" " + name + b"\0" + blob))
    body = b"".join(entry for _, entry in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def host_stamp() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_tree": git_tree_id(SRC),
    }


def summarize(values: list[float]) -> str:
    """Median, sample count, and the highest percentile with >= 10 samples
    beyond it."""
    if not values:
        return "no samples"
    n = len(values)
    out = f"median {statistics.median(values):.6g} n={n}"
    tail = [p for p in (50, 90, 99, 99.9) if n * (100 - p) / 100 >= 10]
    if tail:
        p = tail[-1]
        out += f" p{p:g} {sorted(values)[math.ceil(p / 100 * n) - 1]:.6g}"
    else:
        out += " (too few samples for a percentile)"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pairdom" / "__init__.py").is_file():
        print(f"error: no pairdom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench import END_TO_END, PER_LAYER, Bench
    from spans import Tracer

    host = host_stamp()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install_gc_hook()
    bench = Bench(*WORKLOADS[args.workload], args.seed, SRC, work, tracer)
    try:
        bench.run(args.seconds)
    finally:
        if tracer:
            tracer.remove_gc_hook()
        shutil.rmtree(work, ignore_errors=True)

    print(f"host nproc={host['nproc']} cpu={host['cpu']!r} python={host['python']} "
          f"commit={host['commit']} src_tree={host['src_tree']}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"cycles {bench.cycles}")
    for instance, seen in sorted(bench.hashes.items()):
        for digest, count in seen.items():
            print(f"sha256 {instance} {digest} ops={count}")
    print(f"fail_ratio {bench.failed / max(bench.attempted, 1)} "
          f"({bench.failed}/{bench.attempted})")

    if args.trace:
        values = bench.per_layer()
        units = PER_LAYER
        for name, (pause, gen2) in sorted(bench.gc_by_span().items()):
            print(f"gc under {name}: {pause:.4f} s, {gen2} gen-2")
    else:
        values = bench.end_to_end()
        units = END_TO_END
    metrics = {}
    for name, unit in units.items():
        print(f"{name} [{unit}] {summarize(values[name])}")
        value = statistics.median(values[name]) if values[name] else None
        metrics[name] = {"value": value, "unit": unit}

    if tracer:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"host": host, "workload": args.workload, "seed": args.seed,
                                 "per_layer": metrics})
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    result = {"correct": bench.failed == 0 and all(m["value"] is not None for m in metrics.values()),
              "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
