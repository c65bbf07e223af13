"""The shape builders: the perfect join, the caterpillar and the join of
two trees.

Each shape's text is frozen as a sha256 digest of ``serialize_cotree``,
labels included, so the solution digests of ``test_output_identity`` and
``test_verify_on_tree``'s instances stay those of the same trees.  The
builders write their postfix unchecked, so every tree they build must pass
the test reference ``assert_valid_postfix`` and hold -1 at every internal
node; the join must read its inputs' labels at leaves only, whatever view
of them it is given.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from pairdom import (
    Cotree,
    caterpillar_cotree,
    join_cotrees,
    perfect_join_cotree,
    random_cotree,
    serialize_cotree,
)
from pairdom.cotree import JOIN, LEAF, UNION
from conftest import assert_valid_postfix

PERFECT_SIZES = (1, 2, 1 << 10, 1 << 14)
CATERPILLAR_SIZES = (1, 2, 1_000, 10_000)
CATERPILLAR_BIASES = (0.2, 0.5, 0.8)
CATERPILLAR_SEEDS = (7, 11)
# (left leaves, left join bias, right leaves, right join bias); pair j draws
# its trees with seeds 2j and 2j + 1.
JOINS = ((1, 0.5, 1, 0.5), (3, 0.3, 1, 0.8), (1, 0.8, 9, 0.3), (50, 0.5, 70, 0.2),
         (1000, 0.8, 400, 0.5))


def _digest(tree: Cotree) -> str:
    return hashlib.sha256(serialize_cotree(tree).encode()).hexdigest()


def shape_digests() -> dict[str, str]:
    out = {}
    for n in PERFECT_SIZES:
        out[f"perfect n={n}"] = _digest(perfect_join_cotree(n))
    for n in CATERPILLAR_SIZES:
        for bias in CATERPILLAR_BIASES:
            for seed in CATERPILLAR_SEEDS:
                out[f"caterpillar n={n} bias={bias} seed={seed}"] = _digest(
                    caterpillar_cotree(n, bias, seed)
                )
    for j, (nl, bl, nr, br) in enumerate(JOINS):
        out[f"join {nl}+{nr}"] = _digest(
            join_cotrees(random_cotree(nl, bl, 2 * j), random_cotree(nr, br, 2 * j + 1))
        )
    return out


EXPECTED: dict[str, str] = {
    "perfect n=1": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    "perfect n=2": "79adb3077f569c2d0fdf762e8b5baf9433550aa125cbfe6d8bcac409783054f9",
    "perfect n=1024": "3eebe248911bebbbee0a9a725c6df7b86f622349098261346baf7f9356f98f88",
    "perfect n=16384": "9d657411952aaf4deef08a6af97fa520ca587e368508e41261a7ecedc813d1eb",
    "caterpillar n=1 bias=0.2 seed=7": (
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"
    ),
    "caterpillar n=1 bias=0.2 seed=11": (
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"
    ),
    "caterpillar n=1 bias=0.5 seed=7": (
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"
    ),
    "caterpillar n=1 bias=0.5 seed=11": (
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"
    ),
    "caterpillar n=1 bias=0.8 seed=7": (
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"
    ),
    "caterpillar n=1 bias=0.8 seed=11": (
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"
    ),
    "caterpillar n=2 bias=0.2 seed=7": (
        "972d0043ac7a2e1648fdfe17647d73097e2faa72af6de20f3f24a1e95f6cbc10"
    ),
    "caterpillar n=2 bias=0.2 seed=11": (
        "c22b0fb3556b1cbdd4d2a715261683d835c0553a0b33a176871d5359c99e901d"
    ),
    "caterpillar n=2 bias=0.5 seed=7": (
        "1dcb6173d5073d9a2b4117059efbbe609d1154d24d8c305cd2e0eba41571e2ab"
    ),
    "caterpillar n=2 bias=0.5 seed=11": (
        "79adb3077f569c2d0fdf762e8b5baf9433550aa125cbfe6d8bcac409783054f9"
    ),
    "caterpillar n=2 bias=0.8 seed=7": (
        "1dcb6173d5073d9a2b4117059efbbe609d1154d24d8c305cd2e0eba41571e2ab"
    ),
    "caterpillar n=2 bias=0.8 seed=11": (
        "79adb3077f569c2d0fdf762e8b5baf9433550aa125cbfe6d8bcac409783054f9"
    ),
    "caterpillar n=1000 bias=0.2 seed=7": (
        "c202ae56987ed3f7c0d923069f94ed4d61c71deb9dae81defac2840dd5e0bca8"
    ),
    "caterpillar n=1000 bias=0.2 seed=11": (
        "7cc2be9cba158756e53fc082c6f20d60831ae68a4df9fc2b230433ee811e838f"
    ),
    "caterpillar n=1000 bias=0.5 seed=7": (
        "23336b1a92298cc7ca6f97086f74b465c3bb3cfad252030bd0bf24327f4833df"
    ),
    "caterpillar n=1000 bias=0.5 seed=11": (
        "55901f3a78989841514d2e0a96e1d8b011e6c24dfaac7a505bed0f5d726f994b"
    ),
    "caterpillar n=1000 bias=0.8 seed=7": (
        "2fd75916f289864ade35007bd30ae2da1a3eb9b3af97dcdd97c755dafd4071b1"
    ),
    "caterpillar n=1000 bias=0.8 seed=11": (
        "c1b2933d00beee7b4feaad34252f6536bfde0a06bb700191b9ac80a8342e8809"
    ),
    "caterpillar n=10000 bias=0.2 seed=7": (
        "9d69fb7062267c8da6469b4a32eb5d78fea172cd71c8e56d2ada471b1b25877d"
    ),
    "caterpillar n=10000 bias=0.2 seed=11": (
        "808906834d783b0a3bff90653975c96ad1708d570275a4a7e2cff624f676b342"
    ),
    "caterpillar n=10000 bias=0.5 seed=7": (
        "61587dd3fc4ee85dc56720317fa283e94ee9c0f1e92483453f9ae9363799e8c9"
    ),
    "caterpillar n=10000 bias=0.5 seed=11": (
        "6307f5490120016ccb88e47a475a1e8a3fdd881d752a6c5909ac972b23e62844"
    ),
    "caterpillar n=10000 bias=0.8 seed=7": (
        "d4401b5ab26c004655b430f65f1cfd9c8eee0bc920817ddd1e12170231ca3e7f"
    ),
    "caterpillar n=10000 bias=0.8 seed=11": (
        "61feaf0f1454e29a5155846020dbbc34a88cfcb0747484a645f0f8e0c7895607"
    ),
    "join 1+1": "79adb3077f569c2d0fdf762e8b5baf9433550aa125cbfe6d8bcac409783054f9",
    "join 3+1": "8fde4bee0f6e032b399c7f5d87d88c8259040abb1eef7f9cb2d72c660c9e5cec",
    "join 1+9": "a17fe918b2cd781408662b4c3adc5ac421cdc12b10455898bf299bd9d74c3abe",
    "join 50+70": "aa7522f8946ddadee83f382928fb0c0b05ed68c0c9b48067208dbd950cdf8a36",
    "join 1000+400": "7cb96c5e28a4194951a2e3d87366c35a96d4e71237044055934a23b2041ba217",
}


def test_shapes_are_frozen():
    got = shape_digests()
    assert [key for key in sorted(set(got) | set(EXPECTED))
            if got.get(key) != EXPECTED.get(key)] == []


def assert_built(tree: Cotree) -> None:
    """A builder's tree: a valid postfix with kinds in a bytearray, -1 at
    every internal node and no child view."""
    assert type(tree.kind) is bytearray and tree._b is None
    assert all(x == -1 for k, x in zip(tree.kind, tree._a) if k != LEAF)
    assert_valid_postfix(tree)


trees = st.builds(random_cotree, st.integers(1, 30), st.floats(0, 1), st.integers(0, 10_000))


class TestBuiltTreesAreValid:
    @given(st.integers(0, 10))
    def test_perfect_join(self, depth):
        tree = perfect_join_cotree(1 << depth)
        assert_built(tree)
        assert tree.leaf_labels() == list(range(1 << depth))
        assert set(tree.kind) <= {LEAF, JOIN}

    @given(st.integers(1, 60), st.floats(0, 1), st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_caterpillar(self, n, bias, seed):
        tree = caterpillar_cotree(n, bias, seed)
        assert_built(tree)
        # A left spine: every internal node's right child is a leaf.
        assert all(tree.kind[i - 1] == LEAF for i, k in enumerate(tree.kind) if k != LEAF)

    @given(trees, trees)
    @settings(max_examples=100)
    def test_join(self, left, right):
        tree = join_cotrees(left, right)
        assert_built(tree)
        assert tree.leaf_count == left.leaf_count + right.leaf_count
        assert tree.kind[-1] == JOIN
        assert tree.leaf_labels() == left.leaf_labels() + [
            x + left.leaf_count for x in right.leaf_labels()
        ]


@given(trees, trees, st.booleans(), st.booleans())
@settings(max_examples=100)
def test_join_reads_labels_at_leaves_only(left, right, derive_left, derive_right):
    # A derived child view keeps child indices at internal nodes of ``_a``.
    want = join_cotrees(left, right)
    if derive_left:
        left.b
    if derive_right:
        right.b
    got = join_cotrees(left, right)
    assert (got.kind, got._a) == (want.kind, want._a)
    assert type(got.kind) is bytearray


class TestBuilderInputs:
    @pytest.mark.parametrize("n, bias", [(0, 0.5), (-3, 0.5), (5, -0.1), (5, 1.5)])
    def test_caterpillar_rejects_what_random_cotree_rejects(self, n, bias):
        with pytest.raises(ValueError) as want:
            random_cotree(n, bias, 0)
        with pytest.raises(ValueError) as got:
            caterpillar_cotree(n, bias, 0)
        assert str(got.value) == str(want.value)

    def test_bias_bounds_are_accepted(self):
        for bias in (0.0, 1.0):
            assert set(caterpillar_cotree(9, bias, 3).kind[2::2]) == {JOIN if bias else UNION}

    @pytest.mark.parametrize("n", [0, -1, -4, 3, 6, 12, 1000])
    def test_perfect_join_needs_a_power_of_two(self, n):
        with pytest.raises(ValueError, match=f"power of two, got {n}"):
            perfect_join_cotree(n)
