#!/usr/bin/env python3
"""In-process A/B timing of ``solve()`` between two ``pairdom`` source trees.

    python3 tools/ab_solve.py ../base/src/pairdom [src/pairdom]

Both trees load into one process under their own package names.  On the
library instances of perfbench's two workloads (``perfbench/instances.py``,
seed 1), each of 40 rounds times one ``solve()`` per copy with
``time.process_time``, in an order that flips every round, and the first
round checks that the copies return the same pairs.  Each workload's tree
is solved as ``parse_cotree(serialize_cotree(tree))``, built once, so both
copies fold the postfix tree that perfbench's text op parses, with no
renumbering copy in the timed call.  Prints each copy's median and the
second's wins.
"""

import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 40
# workload -> (family, leaves, shape seed) of perfbench's library instance
WORKLOADS = {"perfect-join-rv": ("perfect", 2**18, 0), "random-262k": ("random", 2**18, 0)}


def main() -> None:
    if not 2 <= len(sys.argv) <= 3:
        raise SystemExit(__doc__)
    trees = [Path(sys.argv[1]), Path(sys.argv[2] if len(sys.argv) == 3 else ROOT / "src" / "pairdom")]
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from instances import make_restricted, make_tree
    from pairdom import parse_cotree, serialize_cotree

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        mods = []
        for name, src in zip(("pairdom_a", "pairdom_b"), trees):
            shutil.copytree(src, Path(tmp, name), ignore=shutil.ignore_patterns("__pycache__"))
            mods.append(importlib.import_module(name))
        for workload, (family, n, shape_seed) in WORKLOADS.items():
            tree = parse_cotree(serialize_cotree(make_tree(family, n, shape_seed, 1)))
            members = make_restricted(family, n, 1).members()
            sets = [mod.RestrictedSet(n, members) for mod in mods]
            times = [[], []]
            for rnd in range(ROUNDS):
                pairs = []
                for i in (0, 1) if rnd % 2 == 0 else (1, 0):
                    start = time.process_time()
                    sol = mods[i].solve(tree, sets[i])
                    times[i].append(time.process_time() - start)
                    if rnd == 0:
                        pairs.append([(p.u, p.v, p.cls.value) for p in sol.pairs])
                    del sol
                if rnd == 0 and pairs[0] != pairs[1]:
                    raise SystemExit(f"{workload}: the two copies disagree")
            wins = sum(b < a for a, b in zip(*times))
            med = [statistics.median(t) for t in times]
            print(f"{workload}: a {med[0]:.3f} s, b {med[1]:.3f} s "
                  f"({med[1] / med[0] - 1:+.1%}), b faster in {wins}/{ROUNDS} rounds")


if __name__ == "__main__":
    main()
