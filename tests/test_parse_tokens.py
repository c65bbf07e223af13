"""``parse_cotree`` against the regex-token parser it grew from.

The parser splits each chunk of regular text at whitespace and hands any
other chunk to the regex.  The regex-token parser is kept here, frozen, as
the reference: for every text both return the same ``kind`` and label
lists, or raise the same message at the same position.
"""

from __future__ import annotations

import random
import re
import tracemalloc
from itertools import compress, islice
from operator import length_hint, not_
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pairdom import CotreeParseError, parse_cotree, random_cotree, serialize_cotree
from pairdom import cotree
from pairdom.cotree import _CHUNK, JOIN, LEAF, UNION

# -- the regex-token parser, kept as the reference ---------------------------

_REF_TOKEN = re.compile(r"[0-9]+|\(\s*[+*]|\S")
_REF_SPACE = re.compile(r"\s*")


def _ref_offset(text, pos, end, index):
    return next(islice(_REF_TOKEN.finditer(text, pos, end), index, None)).start()


def _ref_innermost_open(text):
    opens = []
    for match in _REF_TOKEN.finditer(text):
        if match.group() == ")":
            opens.pop()
        elif match.group()[0] == "(":
            opens.append(match.start())
    return opens[-1]


def _ref_offending_leaf(text, n):
    seen = bytearray(n)
    for match in re.finditer(r"[0-9]+", text):
        label = int(match.group())
        if label >= n or seen[label]:
            return match.start()
        seen[label] = 1
    return 0


def reference_parse(text: str) -> tuple[list[int], list[int]]:
    """The ``kind`` and label lists of ``text``'s postfix, read one regex
    token at a time in chunks of ``_CHUNK`` characters cut after a ')'."""
    kind, arena_a, stack = [], [], []
    op, count = None, 0
    length = len(text)
    end = 0
    while op is not None or not count:
        if end == length:
            if op is None:
                raise CotreeParseError("empty input", 0)
            raise CotreeParseError("unclosed '('", _ref_innermost_open(text))
        pos = end
        end = text.find(")", pos + _CHUNK) + 1 or length
        tokens = _REF_TOKEN.findall(text, pos, end)
        it = iter(tokens)
        for tok in it:
            if tok == ")":
                if count < 2:
                    raise CotreeParseError(
                        "unmatched ')'" if op is None
                        else "internal node needs at least two subtrees",
                        _ref_offset(text, pos, end, len(tokens) - length_hint(it) - 1),
                    )
                op, count = stack.pop()
            elif "0" <= tok < ":":
                kind.append(LEAF)
                arena_a.append(int(tok))
            elif len(tok) > 1:
                stack.append((op, count))
                op = UNION if tok[-1] == "+" else JOIN
                count = 0
                continue
            else:
                at = _ref_offset(text, pos, end, len(tokens) - length_hint(it) - 1)
                if tok != "(":
                    raise CotreeParseError(f"unexpected character {tok!r}", at)
                j = _REF_SPACE.match(text, at + 1).end()
                raise CotreeParseError(
                    "expected '+' or '*' after '('", j if j < length else at
                )
            if count:
                kind.append(op)
                arena_a.append(-1)
                count += 1
            else:
                count = 1
                if op is None:
                    break
    rest = length_hint(it)
    trailing = _REF_TOKEN.search(
        text, _ref_offset(text, pos, end, len(tokens) - rest) if rest else end
    )
    if trailing:
        raise CotreeParseError("trailing input after complete tree", trailing.start())
    n = (len(kind) + 1) >> 1
    seen = bytearray(n)
    for label in compress(arena_a, map(not_, kind)):
        if label >= n or seen[label]:
            raise CotreeParseError(
                f"leaf labels must be exactly 0..{n - 1} with no repeats; "
                f"offending label {label}",
                _ref_offending_leaf(text, n),
            )
        seen[label] = 1
    return kind, arena_a


def outcome(text: str):
    """What ``parse_cotree`` gives: its kinds and labels as lists, or its
    error and position."""
    try:
        tree = parse_cotree(text)
    except CotreeParseError as err:
        return str(err), err.position
    return list(tree.kind), tree._a


def reference_outcome(text: str):
    try:
        return reference_parse(text)
    except CotreeParseError as err:
        return str(err), err.position


# -- texts -------------------------------------------------------------------

# Whitespace: ASCII '\x1c', which ``str.isspace`` and the regex's ``\s``
# both take, and the non-ASCII '\x85' and U+3000, which send a chunk to the
# regex.
SPACES = [" ", "\n", "\t", "\x1c", "\x85", "\u3000"]
# Characters that are never valid: ASCII and non-ASCII, and two that
# ``int()`` would take inside a label ('_' and the Arabic-Indic one).  Then
# '(' and the operators, which can part a '(' from its operator or follow a
# label.
MUTANTS = ["x", "-", "_", "\u00b2", "\u0661", "(", "+", "*"]


def irregular_text(tree, rng: random.Random) -> str:
    """n-ary text for ``tree``: runs of same-op left children written as one
    node, and whitespace drawn from ``SPACES`` or left out wherever tokens
    may touch, so that '(' and its operator may stand apart, an operator may
    be glued to a label and a label to a '('."""
    kind, a, b = tree.kind, tree.a, tree.b
    parts = []
    stack = [tree.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif kind[item] == LEAF:
            parts.append(str(a[item]))
        else:
            operands = [b[item]]
            node = a[item]
            while kind[node] == kind[item] and rng.random() < 0.5:
                operands.append(b[node])
                node = a[node]
            operands.append(node)
            stack.extend([")", " "])
            for x in operands[:-1]:
                stack.extend([x, " "])
            stack.extend([operands[-1], " ", "+" if kind[item] == UNION else "*", " ", "("])
    # Each " " above is a gap, which may be empty unless it parts two labels.
    out = []
    for i, part in enumerate(parts):
        if part != " ":
            out.append(part)
            continue
        digits = parts[i - 1][-1].isdigit() and parts[i + 1][0].isdigit()
        out.append(rng.choice(SPACES) if digits or rng.random() < 0.5 else "")
    return "".join(out)


def mutate(text: str, rng: random.Random, times: int) -> str:
    """``text`` with a character of ``MUTANTS`` put in or in place of
    another, or a character dropped, ``times`` times."""
    for _ in range(times):
        at = rng.randrange(len(text) + 1)
        char = rng.choice(MUTANTS + [""])
        cut = at + (at < len(text) and rng.random() < 0.5)
        text = text[:at] + char + text[cut:]
    return text


# -- differentials ------------------------------------------------------------

chunks = st.sampled_from([1, 7, 64, _CHUNK])


@given(st.integers(1, 40), st.floats(0, 1), st.integers(0, 10**6), chunks)
@settings(max_examples=200, deadline=None)
def test_irregular_text_parses_as_the_reference(n, bias, seed, chunk):
    tree = random_cotree(n, bias, seed)
    text = irregular_text(tree, random.Random(seed))
    with mock.patch.object(cotree, "_CHUNK", chunk):
        got = outcome(text)
    assert got == reference_outcome(text) == reference_parse(serialize_cotree(tree))


@given(st.integers(1, 40), st.floats(0, 1), st.integers(0, 10**6), st.integers(1, 3), chunks)
@settings(max_examples=200, deadline=None)
def test_mutated_text_parses_as_the_reference(n, bias, seed, times, chunk):
    rng = random.Random(seed)
    tree = random_cotree(n, bias, seed)
    text = mutate(rng.choice([serialize_cotree(tree), irregular_text(tree, rng)]), rng, times)
    with mock.patch.object(cotree, "_CHUNK", chunk):
        got = outcome(text)
    assert got == reference_outcome(text)


# -- irregular tokens on the edge of a real chunk ----------------------------

EDGE_TEXT = serialize_cotree(random_cotree(30_000, 0.5, 4))
EDGE_ARENA = reference_parse(EDGE_TEXT)


def first_after(pattern: str) -> re.Match:
    return next(m for m in re.finditer(pattern, EDGE_TEXT) if m.start() >= 1000)


# Where a chunk's first token is the node just after a ')' that ends the
# chunk before it, "...) (+ 123 ...": offsets 2 and 3 hold '(' and its
# operator, and the label starts at offset 5.
AFTER = first_after(r"\) \([+*] [0-9]+")
# Where a chunk's last tokens are the second label of a node of two labels
# and the ')' after it, "(+ 12 345)", which ends the chunk.
BEFORE = first_after(r"\([+*] [0-9]+ ([0-9]+)\)")
LAST = BEFORE.start(1) - BEFORE.start()

# (name, match, offset in it, characters dropped there, inserted string,
# whether the result is valid)
EDGE_CASES = [
    ("first-space-after-(", AFTER, 3, 0, " ", True),
    ("first-x85-after-(", AFTER, 3, 0, "\x85", True),
    ("first-u3000-after-(", AFTER, 3, 0, "\u3000", True),
    ("first-op-glued-to-label", AFTER, 4, 1, "", True),
    ("first-x1c-before-(", AFTER, 1, 1, "\x1c", True),
    ("first-lone-(", AFTER, 3, 1, "", False),
    ("first-(-glued-to-label", AFTER, 3, 2, "", False),
    ("first-op-in-label", AFTER, 6, 0, "+", False),
    ("first-x-in-label", AFTER, 5, 1, "x", False),
    ("first-minus-before-label", AFTER, 5, 0, "-", False),
    ("last-space-after-(", BEFORE, 1, 0, " ", True),
    ("last-op-glued-to-label", BEFORE, 2, 1, "", True),
    ("last-u3000-before-label", BEFORE, LAST - 1, 1, "\u3000", True),
    ("last-underscore-in-label", BEFORE, LAST + 1, 0, "_", False),
    ("last-superscript-label", BEFORE, LAST, 1, "\u00b2", False),
    ("last-arabic-indic-label", BEFORE, LAST, 1, "\u0661", False),
]


@pytest.mark.parametrize(
    "match, at, drop, insert, valid", [case[1:] for case in EDGE_CASES],
    ids=[case[0] for case in EDGE_CASES],
)
def test_irregular_token_on_a_chunk_edge(match, at, drop, insert, valid):
    start = match.start() + at
    text = EDGE_TEXT[:start] + insert + EDGE_TEXT[start + drop :]
    # The ')' that is to end the first chunk, moved by an edit before it.
    cut = AFTER.start() if match is AFTER else BEFORE.end() - 1 + len(insert) - drop
    assert text[cut] == ")" and cut <= _CHUNK
    text = " " * (_CHUNK - cut) + text
    assert text.find(")", _CHUNK) == _CHUNK and len(text) > 3 * _CHUNK
    got = outcome(text)
    assert got == reference_outcome(text)
    assert (got == EDGE_ARENA) == valid


# -- memory --------------------------------------------------------------------

# tracemalloc peak of parse_cotree above the tree it returns, at 2^16 leaves.
# Measured 0.65 MB on CPython 3.11.7, where the regex's tokens, with a new
# string for each '(+' and '(*', read 1.13 MB.  A split over the whole text
# read 4.98 MB.
PARSE_PEAK_BOUND_MB = 2.0


def test_parse_memory():
    text = serialize_cotree(random_cotree(1 << 16, 0.5, 0))
    tracemalloc.start()
    try:
        tree = parse_cotree(text)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.leaf_count == 1 << 16
    above = (peak - current) / 2**20
    assert above <= PARSE_PEAK_BOUND_MB, f"parse peaked {above:.2f} MB above its tree"
