"""Acceptance gate: every criterion as one test with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Seeds are fixed; every tolerance is exact unless a
criterion states otherwise.
"""

from __future__ import annotations

import random
import time

import pytest

from pairdom import (
    Cotree,
    NoSolutionError,
    P4Witness,
    RestrictedSet,
    SolveContext,
    check_maximum_properties,
    is_induced_p4,
    join_cotrees,
    materialize,
    oracle_canonical,
    oracle_paired_domination_number,
    random_cotree,
    random_restricted,
    recognize,
    solve,
    verify_solution,
)
from pairdom.cli import main as cli_main
from pairdom.diagnostics import snapshot
from conftest import (
    cube_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_instance_params,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_oracle_differential():
    """10,000 seeded instances: solve == oracle on (matched number, f)."""
    t0 = time.perf_counter()
    solved = no_solution = 0
    for seed in range(10_000):
        n, bias, density = random_instance_params(seed)
        tree = random_cotree(n, bias, seed)
        restricted = random_restricted(n, density, seed + 1)
        graph = materialize(tree)
        try:
            sol = solve(tree, restricted)
        except NoSolutionError:
            with pytest.raises(NoSolutionError):
                oracle_canonical(graph, restricted)
            no_solution += 1
            continue
        res = oracle_canonical(graph, restricted)
        assert (sol.matched_number, sol.f) == (res.beta, res.f_min), (
            f"seed {seed}: solver {(sol.matched_number, sol.f)} "
            f"!= oracle {(res.beta, res.f_min)}"
        )
        solved += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (oracle differential)",
        solved + no_solution == 10_000 and elapsed < 120,
        f"{solved} solved + {no_solution} no-solution agreed, {elapsed:.1f}s",
    )


def test_criterion_2_validity():
    """Same 10,000 instances plus 1,000 larger ones: output always verifies."""
    checked = 0
    for seed in range(10_000):
        n, bias, density = random_instance_params(seed)
        tree = random_cotree(n, bias, seed)
        restricted = random_restricted(n, density, seed + 1)
        try:
            sol = solve(tree, restricted)
        except NoSolutionError:
            continue
        report = verify_solution(
            materialize(tree), restricted, [(p.u, p.v) for p in sol.pairs]
        )
        assert report.valid, f"seed {seed}: {report.problems}"
        assert (report.k, report.s, report.f, report.matched_number) == (
            sol.k, sol.s, sol.f, sol.matched_number,
        ), f"seed {seed}: stats drift"
        checked += 1
    for seed in range(1_000):
        rng = random.Random(900_000 + seed)
        n = rng.randint(11, 200)
        bias = rng.choice([0.3, 0.5, 0.8])
        density = rng.choice([0.0, 0.3, 0.7, 1.0])
        tree = random_cotree(n, bias, seed)
        restricted = random_restricted(n, density, seed + 1)
        try:
            sol = solve(tree, restricted)
        except NoSolutionError:
            continue
        report = verify_solution(
            materialize(tree), restricted, [(p.u, p.v) for p in sol.pairs]
        )
        assert report.valid and (report.k, report.s, report.f) == (sol.k, sol.s, sol.f)
        checked += 1
    _report("criterion 2 (validity)", checked > 0, f"{checked} solutions verified")


def test_criterion_3_maximum_property_suite():
    """200 connected cotrees, n=1000: zero necessary-condition violations."""
    t0 = time.perf_counter()
    for seed in range(200):
        tree = random_cotree(1_000, 0.5, seed)
        tree.kind[tree.root] = 2  # join at the root keeps the graph connected
        restricted = random_restricted(1_000, 0.5, seed + 1)
        sol = solve(tree, restricted)
        graph = materialize(tree)
        violations = check_maximum_properties(graph, restricted, sol)
        assert violations == [], f"seed {seed}: {[str(v) for v in violations][:3]}"
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 3 (maximum-property suite)",
        elapsed < 30,
        f"200 instances clean, {elapsed:.1f}s",
    )


def test_criterion_4_classical_reduction():
    """Empty restricted set: pair count halves the paired-domination number."""
    checked = 0
    for seed in range(1_000):
        rng = random.Random(600_000 + seed)
        n = rng.randint(2, 10)
        tree = random_cotree(n, rng.choice([0.3, 0.5, 0.8]), seed)
        graph = materialize(tree)
        try:
            sol = solve(tree, RestrictedSet.empty(n))
        except NoSolutionError:
            continue
        gamma_p = oracle_paired_domination_number(graph)
        assert 2 * len(sol.pairs) == gamma_p, f"seed {seed}"
        checked += 1
    cube = oracle_paired_domination_number(cube_graph())
    assert cube == 4, f"3-cube paired-domination number came out {cube}"
    _report(
        "criterion 4 (classical reduction)",
        checked > 0,
        f"{checked} instances, 3-cube value 4 reproduced",
    )


def test_criterion_5_worked_combine():
    """Full pair + spare free vertex joined with (restricted, free): (1,1,0)."""
    ctx = SolveContext(5, [0, 1, 4])
    lpair = ctx.combine_joint(ctx.leaf_summary(0), ctx.leaf_summary(1))
    left = ctx.combine_union(lpair, ctx.leaf_summary(2))
    right = ctx.combine_union(ctx.leaf_summary(3), ctx.leaf_summary(4))
    view = snapshot(ctx, ctx.combine_joint(left, right))
    ok = (view.k, view.s, view.f) == (1, 1, 0)
    _report(
        "criterion 5 (worked combine)",
        ok,
        f"(k,s,f) = {(view.k, view.s, view.f)}, expected (1, 1, 0)",
    )


def test_criterion_6_linearity(tmp_path):
    """Bench on 1e4/1e5/1e6: near-linear ratios, 1e6 solve under 5 s."""
    out = tmp_path / "bench.csv"
    code = cli_main(
        [
            "bench",
            "--sizes", "10000,100000,1000000",
            "--density", "0.5",
            "--repeats", "5",
            "--seed", "0",
            "--output", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    data: dict[int, list[int]] = {}
    ratios = []
    for line in lines[1:]:
        fields = line.split(",")
        if fields[0] == "ratio":
            ratios.append(float(fields[2]))
        else:
            data.setdefault(int(fields[0]), []).append(int(fields[2]))
    medians = {n: sorted(ts)[len(ts) // 2] for n, ts in data.items()}
    big = medians[1_000_000] / 1e9
    ok = all(5.0 <= r <= 20.0 for r in ratios) and big < 5.0
    _report(
        "criterion 6 (linearity)",
        ok,
        f"step ratios {['%.1f' % r for r in ratios]}, n=1e6 median {big:.2f}s",
    )


def test_criterion_7_recognition():
    """Round-trip on 500 random trees; verified witnesses on non-cographs."""
    for seed in range(500):
        rng = random.Random(700_000 + seed)
        n = rng.randint(1, 200)
        tree = random_cotree(n, rng.choice([0.2, 0.5, 0.8]), seed)
        graph = materialize(tree)
        result = recognize(graph)
        assert isinstance(result, Cotree), f"seed {seed}: unexpected witness"
        assert materialize(result).adj == graph.adj, f"seed {seed}: edge drift"
    witnesses = 0
    for graph in (path_graph(4), path_graph(5), cycle_graph(5), cube_graph(), petersen_graph()):
        result = recognize(graph)
        assert isinstance(result, P4Witness)
        assert is_induced_p4(graph, result)
        witnesses += 1
    _report(
        "criterion 7 (recognition)",
        witnesses == 5,
        "500 round trips edge-identical, 5 witnesses verified",
    )


def test_criterion_8_balanced_root_contract():
    """Root join with equal positive restricted counts: V(M) = R, f = 0."""
    for seed in range(500):
        rng = random.Random(800_000 + seed)
        nl = rng.randint(1, 40)
        nr = rng.randint(1, 40)
        k = rng.randint(1, min(nl, nr))
        tree = join_cotrees(
            random_cotree(nl, rng.choice([0.3, 0.5, 0.8]), seed),
            random_cotree(nr, rng.choice([0.3, 0.5, 0.8]), seed + 1),
        )
        members = rng.sample(range(nl), k) + [nl + v for v in rng.sample(range(nr), k)]
        sol = solve(tree, members)
        assert sol.f == 0, f"seed {seed}: free pair emitted"
        assert sorted(sol.vertex_set()) == sorted(members), f"seed {seed}: V(M) != R"
        assert sol.matched_number == 2 * k
    _report(
        "criterion 8 (balanced root contract)",
        True,
        "500 instances: solution vertices equal the restricted set, no free pairs",
    )
