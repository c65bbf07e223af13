"""Output identity: frozen sha256 digests of the solution text.

The solver's tie-breaking is a documented contract, so a refactor or a
speed-up must leave every byte of ``format_solution`` unchanged, not just
(beta, f).  Each digest below covers one instance; a change names the
instances whose text moved.  Groups:

* random trees over join bias x restricted density at two sizes, each as
  generated (often a union root with isolated vertices, so the digest is of
  the ``NoSolutionError`` vertex list) and with the root forced to a join
  (always solvable);
* perfect binary join trees, their leaves relabeled, with R = {} and R = V;
* caterpillars: a left spine of random operations, one new leaf per node.
"""

from __future__ import annotations

import hashlib
import random

from pairdom import (
    Cotree,
    NoSolutionError,
    RestrictedSet,
    caterpillar_cotree,
    perfect_join_cotree,
    random_cotree,
    random_restricted,
    solve,
)
from pairdom.cli import format_solution
from pairdom.cotree import JOIN, LEAF

GRID_SIZES = (1_000, 10_000)
GRID_BIASES = (0.2, 0.5, 0.8)
GRID_DENSITIES = (0.0, 0.3, 0.5, 1.0)


def _digest(tree: Cotree, restricted) -> str:
    try:
        text = format_solution(solve(tree, restricted))
    except NoSolutionError as err:
        text = "no solution: " + " ".join(map(str, err.isolated)) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def _permuted(tree: Cotree, seed: int) -> Cotree:
    labels = list(range(tree.leaf_count))
    random.Random(seed).shuffle(labels)
    for i, k in enumerate(tree.kind):
        if k == LEAF:
            tree.a[i] = labels[tree.a[i]]
    return tree


def grid_digests() -> dict[str, str]:
    out = {}
    seed = 0
    for n in GRID_SIZES:
        for bias in GRID_BIASES:
            for density in GRID_DENSITIES:
                seed += 1
                restricted = random_restricted(n, density, seed + 1000)
                tree = random_cotree(n, bias, seed)
                out[f"n={n} bias={bias} density={density} raw"] = _digest(tree, restricted)
                tree.kind[tree.root] = JOIN
                out[f"n={n} bias={bias} density={density} join-root"] = _digest(
                    tree, restricted
                )
    return out


def shape_digests() -> dict[str, str]:
    out = {}
    for n in (1 << 10, 1 << 14):
        tree = _permuted(perfect_join_cotree(n), n)
        out[f"perfect n={n} R=empty"] = _digest(tree, RestrictedSet.empty(n))
        out[f"perfect n={n} R=V"] = _digest(tree, RestrictedSet(n, range(n)))
    for bias in (0.2, 0.5, 0.8):
        tree = caterpillar_cotree(10_000, bias, 7)
        out[f"caterpillar n=10000 bias={bias}"] = _digest(
            tree, random_restricted(10_000, 0.5, 8)
        )
    return out


EXPECTED_GRID: dict[str, str] = {
    "n=1000 bias=0.2 density=0.0 raw": (
        "7e82c84e2baabe137ae0b31ab1d834052a402c87fcf111aab76648ce87b9aa63"
    ),
    "n=1000 bias=0.2 density=0.0 join-root": (
        "7e82c84e2baabe137ae0b31ab1d834052a402c87fcf111aab76648ce87b9aa63"
    ),
    "n=1000 bias=0.2 density=0.3 raw": (
        "966bc935a91c3d2018e4945e0beb6de80f389de628e066fe837e8b953679061f"
    ),
    "n=1000 bias=0.2 density=0.3 join-root": (
        "660e2f5de6e60e5c71c7938501cbd82b92a949a49b6d29335e5f945ed83555e1"
    ),
    "n=1000 bias=0.2 density=0.5 raw": (
        "3eafc469e23a704e0b6c371ac2c6ff6266f7180e7b062ed1099c136297497b58"
    ),
    "n=1000 bias=0.2 density=0.5 join-root": (
        "682e4fbda12b3c54d3f6532edb9892a0a446e35dbf77f0f00b114619ce4a526c"
    ),
    "n=1000 bias=0.2 density=1.0 raw": (
        "03718ce37b57546f6508d15970624f880723276476b5a6d257a273db3258dffc"
    ),
    "n=1000 bias=0.2 density=1.0 join-root": (
        "29c5b89955fb49a0aa610275b8ce3d106c7869dd574986f42e5d04226e8e6f45"
    ),
    "n=1000 bias=0.5 density=0.0 raw": (
        "e6cb1c6ab92463517a176850ae935a01c266b7f236f700d948fb0db2949b44d1"
    ),
    "n=1000 bias=0.5 density=0.0 join-root": (
        "7e82c84e2baabe137ae0b31ab1d834052a402c87fcf111aab76648ce87b9aa63"
    ),
    "n=1000 bias=0.5 density=0.3 raw": (
        "e1c663b478eee8a9ef27cf5b9420c3c9cc27ec1d00aa01c2bcfa8dffcf1c3ef2"
    ),
    "n=1000 bias=0.5 density=0.3 join-root": (
        "dd03d11297fd30d7c03b6044f217c63e5551d2a27f440906a5a1e2a95106e4d0"
    ),
    "n=1000 bias=0.5 density=0.5 raw": (
        "63ef976f00c0ce8e00c52bd9b63a051ed59a8c5f595e13a9dac7034d056cc29b"
    ),
    "n=1000 bias=0.5 density=0.5 join-root": (
        "63ef976f00c0ce8e00c52bd9b63a051ed59a8c5f595e13a9dac7034d056cc29b"
    ),
    "n=1000 bias=0.5 density=1.0 raw": (
        "3e3248d22454d5f4601f9aa784bf54665d838e9d24e8cc4d821a1006e91f212c"
    ),
    "n=1000 bias=0.5 density=1.0 join-root": (
        "398997dec9c308514234f457f9a90d42462bd8cc6829baed38a9d96ca93e85d4"
    ),
    "n=1000 bias=0.8 density=0.0 raw": (
        "3f063309521ca6c15d66ae250bf708ecc04f23df8507d672401d9704dcd0b199"
    ),
    "n=1000 bias=0.8 density=0.0 join-root": (
        "3f063309521ca6c15d66ae250bf708ecc04f23df8507d672401d9704dcd0b199"
    ),
    "n=1000 bias=0.8 density=0.3 raw": (
        "232133c15e7a3845630660d31bc0bdc8af7df77e78eef1f6ce2e200524ec4bd5"
    ),
    "n=1000 bias=0.8 density=0.3 join-root": (
        "232133c15e7a3845630660d31bc0bdc8af7df77e78eef1f6ce2e200524ec4bd5"
    ),
    "n=1000 bias=0.8 density=0.5 raw": (
        "73764b3c5e4affc743247257e3cb63caa3fd528e8946c270db9ec0f6001cef2e"
    ),
    "n=1000 bias=0.8 density=0.5 join-root": (
        "73764b3c5e4affc743247257e3cb63caa3fd528e8946c270db9ec0f6001cef2e"
    ),
    "n=1000 bias=0.8 density=1.0 raw": (
        "d79f0c92e14d5a95097d7d4e58846b8de8a63981d793dd31b05beb85437ed4cc"
    ),
    "n=1000 bias=0.8 density=1.0 join-root": (
        "d79f0c92e14d5a95097d7d4e58846b8de8a63981d793dd31b05beb85437ed4cc"
    ),
    "n=10000 bias=0.2 density=0.0 raw": (
        "dfa9e7953e620828d8a9ce89ac833c039c4f958b24bdfea42e277f57bef2271d"
    ),
    "n=10000 bias=0.2 density=0.0 join-root": (
        "dfa9e7953e620828d8a9ce89ac833c039c4f958b24bdfea42e277f57bef2271d"
    ),
    "n=10000 bias=0.2 density=0.3 raw": (
        "7697f6b3fabb02a2208282baa216e17a7209f9f0a73729d4654253ff429ec65a"
    ),
    "n=10000 bias=0.2 density=0.3 join-root": (
        "7a9d289dda99efe28f32f84d08d337049c8686fa23af21da9a97eae368919ffc"
    ),
    "n=10000 bias=0.2 density=0.5 raw": (
        "53ab4e3c77798c62c81bf3efb03f51b0a26b5a6d2adfd43790c25b22b881a657"
    ),
    "n=10000 bias=0.2 density=0.5 join-root": (
        "90ed6a286abfdadde831c762d9d5ceea949246db7e195e840bbe0649b9410ffb"
    ),
    "n=10000 bias=0.2 density=1.0 raw": (
        "222895bdd1c29bc08ba56e8fe97c086f4cf0e2e8c3d5beb5bab0bab793f76081"
    ),
    "n=10000 bias=0.2 density=1.0 join-root": (
        "7f12212c8a4669d2dc52194af7244ca7a563a45348e4a777fce00a66d6b87472"
    ),
    "n=10000 bias=0.5 density=0.0 raw": (
        "2a8d914c1bd626ff4403dbdcd96402b9f2406e56e762939fd7d17944a38083e6"
    ),
    "n=10000 bias=0.5 density=0.0 join-root": (
        "3f063309521ca6c15d66ae250bf708ecc04f23df8507d672401d9704dcd0b199"
    ),
    "n=10000 bias=0.5 density=0.3 raw": (
        "10d01499c51d6b7a69b8e081eff04877c62f7e9ef29a5be178a38b7b4c663aeb"
    ),
    "n=10000 bias=0.5 density=0.3 join-root": (
        "10d01499c51d6b7a69b8e081eff04877c62f7e9ef29a5be178a38b7b4c663aeb"
    ),
    "n=10000 bias=0.5 density=0.5 raw": (
        "ee5f511e91990af3f02c066587d0136b66cce4022f081a9fde6a6c5079621d0d"
    ),
    "n=10000 bias=0.5 density=0.5 join-root": (
        "ee5f511e91990af3f02c066587d0136b66cce4022f081a9fde6a6c5079621d0d"
    ),
    "n=10000 bias=0.5 density=1.0 raw": (
        "38516dcbb3247f779a6349124f20c27ea98f1f4cb18346a652bf98608c7ebec1"
    ),
    "n=10000 bias=0.5 density=1.0 join-root": (
        "38516dcbb3247f779a6349124f20c27ea98f1f4cb18346a652bf98608c7ebec1"
    ),
    "n=10000 bias=0.8 density=0.0 raw": (
        "e0b1e64ac2e714bc353d9efec0787daddcbbcefb7e1c6e40da9e8c4abc99cd6c"
    ),
    "n=10000 bias=0.8 density=0.0 join-root": (
        "e0b1e64ac2e714bc353d9efec0787daddcbbcefb7e1c6e40da9e8c4abc99cd6c"
    ),
    "n=10000 bias=0.8 density=0.3 raw": (
        "ab1a2860a51d63f78fd86e6a05857f36f340acc96b2abdb9c5b6a5f3fa8db882"
    ),
    "n=10000 bias=0.8 density=0.3 join-root": (
        "ab1a2860a51d63f78fd86e6a05857f36f340acc96b2abdb9c5b6a5f3fa8db882"
    ),
    "n=10000 bias=0.8 density=0.5 raw": (
        "15e15e51bda03f9e2985e6822b1fd6e7355b4b3ed373b28eeaaba4f6165cb134"
    ),
    "n=10000 bias=0.8 density=0.5 join-root": (
        "15e15e51bda03f9e2985e6822b1fd6e7355b4b3ed373b28eeaaba4f6165cb134"
    ),
    "n=10000 bias=0.8 density=1.0 raw": (
        "5fde3cdcc4a90d34a514b935ed543d748bdd8f9450d5f5c41c55981c6792aeef"
    ),
    "n=10000 bias=0.8 density=1.0 join-root": (
        "5fde3cdcc4a90d34a514b935ed543d748bdd8f9450d5f5c41c55981c6792aeef"
    ),
}

EXPECTED_SHAPES: dict[str, str] = {
    "perfect n=1024 R=empty": (
        "3f063309521ca6c15d66ae250bf708ecc04f23df8507d672401d9704dcd0b199"
    ),
    "perfect n=1024 R=V": (
        "c8653576984699eb46defa312355b69d9b4591cad2c91ed796cd2bae51587921"
    ),
    "perfect n=16384 R=empty": (
        "3f063309521ca6c15d66ae250bf708ecc04f23df8507d672401d9704dcd0b199"
    ),
    "perfect n=16384 R=V": (
        "300f3f8cc6418fef5b868248255cef53937fd64b82c125517c245800eed3e0db"
    ),
    "caterpillar n=10000 bias=0.2": (
        "1c4e3c9bfc31bcd955e0c2465d5c95cd0747e7f58684911620443889f58822e3"
    ),
    "caterpillar n=10000 bias=0.5": (
        "85e7c8f1db7cb9922028ea6d1124ff05de34eb702551985fa8da31a62f3173ca"
    ),
    "caterpillar n=10000 bias=0.8": (
        "f86032031271a3381e8e31a6db42f3776af9b1dc05f64560687e4159f2136ec8"
    ),
}


def _mismatches(got: dict[str, str], want: dict[str, str]) -> list[str]:
    return [key for key in sorted(set(got) | set(want)) if got.get(key) != want.get(key)]


def test_random_grid_output_is_frozen():
    assert _mismatches(grid_digests(), EXPECTED_GRID) == []


def test_shape_families_output_is_frozen():
    assert _mismatches(shape_digests(), EXPECTED_SHAPES) == []


def test_grid_covers_no_solution_instances():
    # The raw low-join-bias instances have isolated vertices, so the grid
    # freezes NoSolutionError vertex lists as well as solution texts.
    n, bias, density = 1_000, 0.2, 0.5
    tree = random_cotree(n, bias, 3)
    try:
        solve(tree, random_restricted(n, density, 1003))
    except NoSolutionError as err:
        assert len(err.isolated) > 0
    else:
        raise AssertionError("expected a no-solution instance in the grid")
