import random

import pytest

from lcseq.matching import (
    DISTINCT_PREFIX,
    Sequence,
    SymbolTable,
    build_position_lists,
    column_map,
    count_matches,
    tokenize,
)

from lcseq.core import lcs_length

from helpers import brute_force_matches, from_text


def check_bytes_like(raw, mode):
    """A bytearray or memoryview of ``raw`` tokenizes as ``raw`` does, and lcs_length runs on it."""
    ref = tokenize(raw, mode)
    length = lcs_length(ref, ref).length
    for like in (bytearray(raw), memoryview(raw)):
        seq = tokenize(like, mode)
        assert seq.symbols == ref.symbols, (type(like), mode)
        assert lcs_length(seq, ref).length == lcs_length(ref, seq).length == length


def test_tokenize_bytes():
    seq = tokenize(b"aba", "bytes")
    assert seq.symbols == b"aba"
    assert list(seq.symbols) == [97, 98, 97]
    assert len(seq) == 3
    check_bytes_like(b"aba", "bytes")


def test_tokenize_lines_first_appearance():
    # lines-mode tokens are the lines themselves, without their line endings
    seq = tokenize(b"x\ny\r\n\nx\rz", "lines")
    assert seq.symbols == (b"x", b"y", b"", b"x", b"z")
    assert seq.symbols[0] == seq.symbols[3]
    check_bytes_like(b"x\ny\r\n\nx\rz", "lines")


def test_tokenize_lines_shared_table():
    # equal lines in two inputs are equal tokens; a table is accepted and unused
    table = SymbolTable()
    a = tokenize(b"foo\nbar\n", "lines", table)
    b = tokenize(b"bar\nbaz\n", "lines")
    assert a.symbols == (b"foo", b"bar")
    assert b.symbols == (b"bar", b"baz")
    assert a.symbols[1] == b.symbols[0]
    assert set(a.symbols) & set(b.symbols) == {b"bar"}
    assert len(table) == 0


def test_tokenize_empty():
    assert len(tokenize(b"", "bytes")) == 0
    assert len(tokenize(b"", "lines")) == 0


def test_tokenize_unknown_mode():
    with pytest.raises(ValueError):
        tokenize(b"x", "words")


def test_position_lists_example():
    pl = build_position_lists(from_text("bdcaba"))
    assert pl.lists == {ord("a"): [6, 4], ord("b"): [5, 1], ord("c"): [3], ord("d"): [2]}
    assert ord("z") not in pl.lists


def test_position_lists_uniform_and_empty():
    pl = build_position_lists(from_text("aaaa"))
    assert pl.lists == {ord("a"): [4, 3, 2, 1]}
    pl = build_position_lists(from_text(""))
    assert pl.lists == {}


def test_position_lists_strictly_decreasing():
    rng = random.Random(1)
    y = Sequence(tuple(rng.randrange(5) for _ in range(200)))
    pl = build_position_lists(y)
    total = 0
    for positions in pl.lists.values():
        assert all(a > b for a, b in zip(positions, positions[1:]))
        assert all(1 <= p <= len(y) for p in positions)
        total += len(positions)
    assert total == len(y)


def test_count_matches_examples():
    for xs, ys, expected in [("ab", "ab", 2), ("aa", "aa", 4), ("ab", "cd", 0)]:
        x, y = from_text(xs), from_text(ys)
        assert count_matches(x, build_position_lists(y)).r == expected


def test_count_matches_vs_brute_force():
    rng = random.Random(2)
    for _ in range(50):
        x = Sequence(tuple(rng.randrange(4) for _ in range(rng.randint(0, 64))))
        y = Sequence(tuple(rng.randrange(4) for _ in range(rng.randint(0, 64))))
        pl = build_position_lists(y)
        matches = brute_force_matches(x, y)
        assert count_matches(x, pl).r == len(matches)
        # row enumeration yields exactly the matched columns, decreasing
        for i in range(1, len(x) + 1):
            expected_cols = sorted(
                (j for (ii, j) in matches if ii == i), reverse=True
            )
            assert pl.lists.get(x.symbols[i - 1], []) == expected_cols


def test_column_map_distinct_y():
    x = tokenize(b"b\nq\na\nb\n", "lines")
    y = tokenize(b"a\nb\nc\n", "lines")
    cols = column_map(x, y)
    assert cols == [2, 1, 2]  # "q" is not in y, so it has no entry
    assert len(cols) == count_matches(x, build_position_lists(y)).r
    assert column_map(Sequence(()), y) == []
    assert column_map(x, Sequence(())) == []
    assert column_map(Sequence(()), Sequence(())) == []


@pytest.mark.parametrize("at", [1, DISTINCT_PREFIX - 1, DISTINCT_PREFIX, 3 * DISTINCT_PREFIX])
def test_column_map_rejects_one_repeat(at):
    # the repeat sits inside the checked prefix, at its edge, or far past it
    base = list(range(3 * DISTINCT_PREFIX + 1))
    assert column_map(Sequence((0,)), Sequence(tuple(base))) == [1]
    y = Sequence(tuple(base[:at] + [base[at // 2]] + base[at:]))
    assert column_map(Sequence((0,)), y) is None


def test_column_map_prefix_check_is_constant_time():
    # a repeat among the first DISTINCT_PREFIX tokens rules the map out
    # before any token past them is hashed
    class Unhashable:
        __hash__ = None

    head = (1, 1, *range(2, DISTINCT_PREFIX))
    y = Sequence((*head, *[Unhashable() for _ in range(10 * DISTINCT_PREFIX)]))
    assert column_map(Sequence((1,)), y) is None
