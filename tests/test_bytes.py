"""bytes mode: tokens kept as ``bytes``, y's masks from its bit planes, R from their popcounts."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcseq import core
from lcseq.core import (
    KERNEL_NAMES,
    ReconstructionCapError,
    _byte_masks,
    _symbol_masks,
    dp_oracle,
    lcs_length,
    lcs_reconstruct,
    validate_common_subsequence,
)
from lcseq.matching import Sequence, build_position_lists, tokenize
from lcseq.shadow import shadow_run

BACKENDS = ("auto", *KERNEL_NAMES)
SIGMAS = (1, 2, 4, 26, 256)


def _check_same_as_tuples(raw_x: bytes, raw_y: bytes) -> None:
    """Every kernel name gives the bytes pair the tuple pair's results, and the oracle's L."""
    bx, by = tokenize(raw_x, "bytes"), tokenize(raw_y, "bytes")
    tx, ty = Sequence(tuple(raw_x)), Sequence(tuple(raw_y))
    expected = int(dp_oracle(tx, ty)[len(tx)][len(ty)])
    for backend in BACKENDS:
        fast, ref = lcs_length(bx, by, backend=backend), lcs_length(tx, ty, backend=backend)
        assert fast.length == ref.length == expected, backend
        assert (fast.stats, fast.backend, fast.counters) == (ref.stats, ref.backend, ref.counters)
        fast, ref = lcs_reconstruct(bx, by, backend=backend), lcs_reconstruct(tx, ty, backend=backend)
        assert fast.length == expected, backend
        assert (fast.stats, fast.backend, fast.subsequence) == (ref.stats, ref.backend, ref.subsequence)


def _pair(rng: random.Random, sigma: int, shape: int) -> tuple[bytes, bytes]:
    """x == y, a near copy, an empty side or an independent y, on ``sigma`` spread byte values."""
    alphabet = rng.sample(range(256), sigma)
    x = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 70)))
    if shape == 0:
        return x, x
    if shape == 1:
        return x, bytes(c if rng.random() < 0.9 else rng.choice(alphabet) for c in x)
    if shape == 2:
        return b"", x
    if shape == 3:
        return x, b""
    return x, bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 70)))


def test_bytes_path_equals_tuple_path():
    rng = random.Random(1986)
    for idx in range(500):
        _check_same_as_tuples(*_pair(rng, SIGMAS[idx % 5], idx // 5 % 5))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SIGMAS).flatmap(
        lambda sigma: st.tuples(
            st.lists(st.integers(256 - sigma, 255), max_size=70),
            st.lists(st.integers(256 - sigma, 255), max_size=70),
            st.booleans(),
        )
    )
)
def test_hypothesis_bytes_path_equals_tuple_path(case):
    a, b, same = case
    _check_same_as_tuples(bytes(a), bytes(a if same else b))


def _refuse(*args):
    raise AssertionError("built an index the chosen kernel does not read")


def test_bytes_bitpar_builds_only_masks(monkeypatch):
    x, y = tokenize(b"abbabaabbaababba", "bytes"), tokenize(b"babaabbaabbabaab", "bytes")
    for name in ("build_position_lists", "count_matches", "_symbol_masks"):
        monkeypatch.setattr(core, name, _refuse)
    for backend in ("auto", "bitpar"):
        assert lcs_length(x, y, backend=backend).backend == "bitpar"
        assert lcs_reconstruct(x, y, backend=backend).backend == "bitpar"


def test_bytes_bisect_choice_builds_lists_but_counts_r_from_masks(monkeypatch):
    # y repeats a byte, so no column map; one match per row, so auto picks bisect
    x, y = tokenize(bytes(range(100)), "bytes"), tokenize(b"\x00" + bytes(range(100)), "bytes")
    built = []
    monkeypatch.setattr(core, "build_position_lists",
                        lambda seq: built.append(seq) or build_position_lists(seq))
    monkeypatch.setattr(core, "count_matches", _refuse)
    res = lcs_reconstruct(x, y)
    assert (res.backend, res.length, res.stats.r) == ("bisect", 100, 101)
    assert built == [y]


def test_bytes_pairs_never_take_the_column_map(monkeypatch):
    # the masks count every bytes pair under auto and bitpar, and the other backends
    # count with position lists; tuple pairs still take the column map
    def column_map(x, y, _build=core.column_map):
        if type(x.symbols) is bytes and type(y.symbols) is bytes:
            raise AssertionError("a bytes pair reached the column map")
        return _build(x, y)

    monkeypatch.setattr(core, "column_map", column_map)
    rng = random.Random(29)
    distinct = [bytes(rng.sample(range(256), k)) for k in (1, 64, 65, 200, 256)]
    pairs = [_pair(rng, SIGMAS[idx % 5], idx // 5 % 5) for idx in range(50)]
    pairs += [(rng.randbytes(rng.randint(0, 300)), ys) for ys in distinct]
    for raw_x, raw_y in pairs:
        x, y = tokenize(raw_x, "bytes"), tokenize(raw_y, "bytes")
        for backend in core.LENGTH_BACKENDS:
            core._count(x, y, backend)
            lcs_length(x, y, backend=backend)
        for backend in BACKENDS:
            lcs_reconstruct(x, y, backend=backend)
    # a y of 200 distinct byte values: R <= m, so the masks' R gives bisect over position lists
    raw_x, raw_y = rng.randbytes(300), distinct[3]
    x, y = tokenize(raw_x, "bytes"), tokenize(raw_y, "bytes")
    kernel, stats, form, _ = core._plan(x, y, "auto")
    assert (kernel, form) == ("bisect", "lists") and stats.r <= stats.m
    _check_same_as_tuples(raw_x, raw_y)


def test_mixed_bytes_and_tuple_pair(monkeypatch):
    # tokens 97 from a bytes and 97 from a tuple are equal, but only an
    # all-bytes pair takes the bit-plane path
    monkeypatch.setattr(core, "_byte_masks", _refuse)
    raw_x, raw_y = b"abcbdab", b"bdcaba"
    pairs = ((tokenize(raw_x, "bytes"), Sequence(tuple(raw_y))),
             (Sequence(tuple(raw_x)), tokenize(raw_y, "bytes")))
    for x, y in pairs:
        assert dp_oracle(x, y)[len(x)][len(y)] == 4
        for backend in BACKENDS:
            assert lcs_length(x, y, backend=backend).length == 4
            rec = lcs_reconstruct(x, y, backend=backend)
            assert validate_common_subsequence(rec.subsequence, x, y, 4)
        assert lcs_length(x, y).backend == "bitpar"
        assert len(shadow_run(x, y)) == len(x)


def test_bytes_and_tuple_sequences_differ():
    assert tokenize(b"ab", "bytes") == Sequence(b"ab")
    assert Sequence(b"ab") != Sequence((97, 98))
    assert tuple(Sequence(b"ab").symbols) == Sequence((97, 98)).symbols


@pytest.mark.parametrize("n", [0, 1, 29, 30, 31, 63, 64, 65, 300])
@pytest.mark.parametrize("sigma", [1, 4, 256])
def test_byte_masks_equal_position_list_masks(n, sigma):
    rng = random.Random(n * 257 + sigma)
    alphabet = rng.sample(range(256), sigma)
    ys = bytes(rng.choice(alphabet) for _ in range(n))
    expected = _symbol_masks(tuple(ys), build_position_lists(Sequence(tuple(ys))).lists)
    assert set(expected) == set(ys)
    assert _byte_masks(ys, ys) == expected
    keep = set(rng.sample(range(256), 5)) | set(ys[:2])  # bytes of y and bytes it lacks
    assert _byte_masks(bytes(keep), ys) == {c: m for c, m in expected.items() if c in keep}


def test_short_x_builds_masks_only_for_its_own_bytes():
    # the count step folds the bytes x lacks into one, so neither entry point holds a mask
    # of n bits for each of y's 256 byte values (65.8 and 67.0 MiB when it did)
    rng = random.Random(10)
    raw_x, raw_y = rng.randbytes(10), rng.randbytes(10**6)
    bx, by = tokenize(raw_x, "bytes"), tokenize(raw_y, "bytes")
    results = []
    for run in (lcs_length, lcs_reconstruct):
        tracemalloc.start()
        try:
            results.append(run(bx, by))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20, (run.__name__, peak)
    length, recon = results
    ref = lcs_reconstruct(Sequence(tuple(raw_x)), Sequence(tuple(raw_y)))
    assert ref.backend == "bitpar"
    for res in (length, recon):
        assert (res.length, res.stats, res.backend) == (ref.length, ref.stats, ref.backend)
    assert recon.subsequence == ref.subsequence


def test_bitpar_rows_count_carries_above_bit_n():
    """After row i, V >> n <= i, and V's bits below n are the masked update's row."""
    rng = random.Random(2004)
    carries = 0
    for idx in range(300):
        raw_x, raw_y = _pair(rng, SIGMAS[idx % 5], idx // 5 % 5)
        n = len(raw_y)
        index = core._plan(Sequence(raw_x), Sequence(raw_y), "bitpar")[3]
        full = (1 << n) - 1
        rows = [full]  # the rows that the trace walks
        core._bitpar_rows(raw_x, index, n, rows)
        v = full
        for i, row in enumerate(rows):
            if i:
                mask = index.get(raw_x[i - 1], (0, 0))[0]
                u = v & mask
                v = ((v + u) | (v - u)) & full  # Allison and Dix's form
            assert row >> n <= i, (idx, i)
            assert row & full == v, (idx, i)
        carries = max(carries, rows[-1] >> n)
    assert carries > 1
