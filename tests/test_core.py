import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcseq.core import (
    _LENGTH_COSTS,
    _RECON_COSTS,
    BITPAR_WORDS_PER_MATCH,
    KERNEL_NAMES,
    DpCapError,
    ReconstructionCapError,
    TraceTable,
    _bisect_trace,
    _bitpar_trace,
    _choose_kernel,
    _threshold_rows,
    dp_oracle,
    extract_lcs,
    is_subsequence,
    lcs_length,
    lcs_reconstruct,
    validate_common_subsequence,
)
from lcseq.matching import Sequence, build_position_lists, count_matches
from lcseq.threshold import BACKEND_NAMES, ArrayBackend

from helpers import brute_force_lcs_length, from_text


def rand_seq(rng, max_len, sigma):
    return Sequence(tuple(rng.randrange(sigma) for _ in range(rng.randint(0, max_len))))


@pytest.mark.parametrize("backend", (*BACKEND_NAMES, "auto", *KERNEL_NAMES))
def test_length_examples(backend):
    x, y = from_text("abcbdab"), from_text("bdcaba")
    assert lcs_length(x, y, backend=backend).length == 4
    a = from_text("aaaa")
    assert lcs_length(a, a, backend=backend).length == 4
    assert lcs_length(from_text("ab"), from_text("cd"), backend=backend).length == 0


@pytest.mark.parametrize("a, b", [("abcdefghij", "abcdXfghij"), ("ab", "cd")])
def test_default_backend_is_bisect(a, b):
    # one match per row, and R = 0: the bisect kernel's regime
    x, y = from_text(a), from_text(b)
    assert lcs_length(x, y).backend == "bisect"
    assert lcs_reconstruct(x, y).backend == "bisect"


@pytest.mark.parametrize("a, b", [("abbabaabbaababba", "babaabbaabbabaab"), ("aaaaaa", "aaaaaa")])
def test_default_backend_is_bitpar(a, b):
    # sigma <= 2, many matches per row: the bitpar kernel's regime
    x, y = from_text(a), from_text(b)
    assert lcs_length(x, y).backend == "bitpar"
    assert lcs_reconstruct(x, y).backend == "bitpar"


def test_chooser_regimes():
    """One match per row keeps bisect at any size; sigma = 2 picks bitpar."""
    for costs in (_LENGTH_COSTS, _RECON_COSTS):
        for m in (1, 10, 1000, 60_000, 10**6):
            for n in (m, 2 * m):
                assert _choose_kernel(m, m, n, costs) == "bisect"
                assert _choose_kernel(0, m, n, costs) == "bisect"
                if m >= 10:
                    assert _choose_kernel(m * n // 2, m, n, costs) == "bitpar"
        assert _choose_kernel(0, 0, 0, costs) == "bisect"


def test_bitpar_row_memory_bound():
    """Where the chooser picks bitpar, m * ceil(n/64) words < BITPAR_WORDS_PER_MATCH * R."""
    rng = random.Random(64)
    picked = 0
    for _ in range(20_000):
        m, n = rng.randint(0, 1 << 17), rng.randint(0, 1 << 17)
        r = int(m * n * rng.random() ** 4)
        if _choose_kernel(r, m, n, _RECON_COSTS) == "bitpar":
            picked += 1
            assert m * ((n + 63) // 64) < BITPAR_WORDS_PER_MATCH * r, (r, m, n)
    assert picked > 1000
    # and the builder stores what the bound counts: m + 1 rows and at most
    # sigma masks of n bits each (CPython: 4 bytes per 30-bit digit plus a
    # header), a few temporaries, and the O(L) chain
    for sigma, m, n in ((2, 1500, 2000), (4, 2000, 1500), (26, 2000, 2000)):
        x = Sequence(tuple(rng.randrange(sigma) for _ in range(m)))
        y = Sequence(tuple(rng.randrange(sigma) for _ in range(n)))
        pl = build_position_lists(y)
        r = count_matches(x, pl).r
        assert _choose_kernel(r, m, n, _RECON_COSTS) == "bitpar"
        tracemalloc.start()
        try:
            _bitpar_trace(x.symbols, pl.lists, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_bytes = 32 + 4 * -(-n // 30)
        # per row of x: a list slot for its row, and two chain entries (slot + int)
        assert peak < (m + 1 + sigma + 4) * row_bytes + 96 * (m + 1) + 4096, (sigma, peak)


def test_kernel_rows_equal_array_backend():
    """After every row the kernel's S is the array set's; its counts are too."""
    rng = random.Random(5150)
    for idx in range(48):
        sigma = (2, 4, 26)[idx % 3]
        if idx < 3:
            m = n = 200
        else:
            m, n = int(201 * rng.random() ** 2), int(201 * rng.random() ** 2)
        x = Sequence(tuple(rng.randrange(sigma) for _ in range(m)))
        y = Sequence(tuple(rng.randrange(sigma) for _ in range(n)))
        pl = build_position_lists(y)
        ts = ArrayBackend(max(n, 1))
        for i, sym in enumerate(x.symbols, start=1):
            ts.begin_row()
            for j in pl.positions(sym):
                ts.update(j)
            assert _threshold_rows(x.symbols[:i], pl.lists)[1:] == ts.contents(), (idx, i)
        measured = lcs_length(x, y, backend="array", position_lists=pl).counters
        assert lcs_length(x, y, position_lists=pl).counters == measured, idx
        assert lcs_reconstruct(x, y, position_lists=pl).counters == measured, idx


def test_vector_scan_examples():
    def scan(a, b):
        return lcs_length(from_text(a), from_text(b), backend="array").length

    assert scan("abcbdab", "bdcaba") == 4
    assert scan("abab", "abab") == 4
    # brute force over all common subsequences gives 1 here
    assert brute_force_lcs_length(from_text("ba"), from_text("ab")) == 1
    assert scan("ba", "ab") == 1


def test_reconstruct_examples():
    x, y = from_text("abcbdab"), from_text("bdcaba")
    res = lcs_reconstruct(x, y)
    assert res.length == 4
    assert validate_common_subsequence(res.subsequence, x, y, 4)

    abc = from_text("abc")
    res = lcs_reconstruct(abc, abc)
    assert bytes(res.subsequence) == b"abc"

    res = lcs_reconstruct(from_text("a"), from_text(""))
    assert res.length == 0 and res.subsequence == ()


def test_extract_lcs_base_case():
    trace = TraceTable(predecessor=[0], column=[0])
    assert extract_lcs(trace, 0, from_text("bdcaba")) == ()


def test_extract_lcs_single_match():
    trace = TraceTable(predecessor=[0, 0], column=[0, 3])
    assert bytes(extract_lcs(trace, 1, from_text("bdcaba"))) == b"c"


def test_extract_lcs_chain():
    trace = TraceTable(predecessor=[0, 0, 1], column=[0, 2, 5])
    assert bytes(extract_lcs(trace, 2, from_text("bdcaba"))) == b"db"


def test_is_subsequence_vs_enumeration():
    # every string over a 3-letter alphabet up to length 5, both ways round
    strings = [s for length in range(6) for s in itertools.product((0, 1, 2), repeat=length)]
    for seq in strings:
        subsequences = {
            c for length in range(len(seq) + 1) for c in itertools.combinations(seq, length)
        }
        for cand in strings:
            assert is_subsequence(cand, Sequence(seq)) == (cand in subsequences), (cand, seq)


def test_dp_oracle_examples():
    x, y = from_text("abcbdab"), from_text("bdcaba")
    table = dp_oracle(x, y)
    assert table.shape == (8, 7)
    assert table[7][6] == 4
    assert brute_force_lcs_length(x, y) == 4

    table = dp_oracle(from_text(""), from_text("abc"))
    assert (table == 0).all()

    assert dp_oracle(from_text("ab"), from_text("ab"))[2][2] == 2


def test_dp_oracle_prefix_semantics():
    rng = random.Random(4)
    x, y = rand_seq(rng, 12, 3), rand_seq(rng, 12, 3)
    table = dp_oracle(x, y)
    for i in range(len(x) + 1):
        for j in range(len(y) + 1):
            xi = Sequence(x.symbols[:i])
            yj = Sequence(y.symbols[:j])
            assert table[i][j] == brute_force_lcs_length(xi, yj)


def test_exhaustive_tiny_vs_brute_force():
    alphabet = (0, 1)
    strings = [
        Sequence(s)
        for l in range(0, 5)
        for s in itertools.product(alphabet, repeat=l)
    ]
    for x in strings:
        for y in strings:
            expected = brute_force_lcs_length(x, y)
            assert int(dp_oracle(x, y)[len(x)][len(y)]) == expected
            assert lcs_length(x, y, backend="veb").length == expected


def test_random_equivalence_and_validity():
    rng = random.Random(123)
    for _ in range(120):
        sigma = rng.choice((2, 4, 26))
        x, y = rand_seq(rng, 80, sigma), rand_seq(rng, 80, sigma)
        pl = build_position_lists(y)
        expected = int(dp_oracle(x, y)[len(x)][len(y)])
        for backend in (*BACKEND_NAMES, *KERNEL_NAMES):
            assert lcs_length(x, y, backend=backend, position_lists=pl).length == expected
        for backend in ("auto", *KERNEL_NAMES):
            res = lcs_reconstruct(x, y, position_lists=pl, backend=backend)
            assert res.length == expected
            assert validate_common_subsequence(res.subsequence, x, y, expected)


def test_symmetry_identity_monotonicity():
    rng = random.Random(55)
    for _ in range(40):
        x, y = rand_seq(rng, 40, 3), rand_seq(rng, 40, 3)
        lxy = lcs_length(x, y).length
        assert lcs_length(y, x).length == lxy
        assert lcs_length(x, x).length == len(x)
        grown = Sequence(x.symbols + (rng.randrange(3),))
        assert lcs_length(grown, y).length >= lxy
        grown_y = Sequence(y.symbols + (rng.randrange(3),))
        assert lcs_length(x, grown_y).length >= lxy


def test_threshold_contents_match_dp_minima():
    """Final S(t) is the smallest j whose prefix of Y reaches LCS rank t."""
    rng = random.Random(77)
    for _ in range(40):
        x, y = rand_seq(rng, 50, 3), rand_seq(rng, 50, 3)
        from lcseq.threshold import make_threshold_set

        pl = build_position_lists(y)
        ts = make_threshold_set(max(len(y), 1), "veb")
        for sym in x.symbols:
            for j in pl.positions(sym):
                ts.update(j)
        table = dp_oracle(x, y)
        final_row = table[len(x)]
        contents = ts.contents()
        assert len(contents) == int(final_row[len(y)])
        for t, s_t in enumerate(contents, start=1):
            assert s_t == min(j for j in range(len(y) + 1) if final_row[j] == t)


def test_operation_accounting():
    rng = random.Random(31)
    for _ in range(40):
        x, y = rand_seq(rng, 60, 2), rand_seq(rng, 60, 2)
        res = lcs_length(x, y, backend="veb")
        c = res.counters
        assert c.structure_total() <= 4 * res.stats.r
        assert c.delete <= c.insert
        recon = lcs_reconstruct(x, y)
        c = recon.counters
        assert c.structure_total() <= 4 * recon.stats.r
        assert c.delete <= c.insert


def test_chain_geometry():
    rng = random.Random(41)
    for _ in range(40):
        x, y = rand_seq(rng, 50, 2), rand_seq(rng, 50, 2)
        pl = build_position_lists(y)
        trace, _, _ = _bisect_trace(x.symbols, pl.lists, pl.length, count_matches(x, pl).r)
        # matches are numbered row by row in enumeration order
        row = [0]
        for i, sym in enumerate(x.symbols, start=1):
            row.extend([i] * len(pl.positions(sym)))
        assert len(row) == trace.count + 1
        for k in range(1, trace.count + 1):
            p = trace.predecessor[k]
            if p:
                assert trace.column[p] < trace.column[k]
                assert row[p] < row[k]


def _check_bitpar_chain(x, y):
    pl = build_position_lists(y)
    expected = int(dp_oracle(x, y)[len(x)][len(y)])
    trace, last, length = _bitpar_trace(x.symbols, pl.lists, pl.length)
    assert trace.count == last == length == expected
    assert trace.predecessor == [0, *range(length)]
    cols = trace.column[1:]
    assert len(cols) == length and all(0 < a < b for a, b in zip(cols, cols[1:]))
    sub = extract_lcs(trace, last, y)
    assert sub == tuple(y.symbols[j - 1] for j in cols)
    assert validate_common_subsequence(sub, x, y, expected)


def test_bitpar_trace_chain():
    """The bitpar trace is the LCS chain: count = L, predecessor[k] = k - 1, rising columns."""
    rng = random.Random(43)
    for idx in range(200):
        sigma = (1, 2, 3, 4, 26)[idx % 5]
        _check_bitpar_chain(rand_seq(rng, 60, sigma), rand_seq(rng, 60, sigma))
    x, y = from_text("abcbdab"), from_text("bdcaba")
    res = lcs_reconstruct(x, y, backend="bitpar")
    assert res.backend == "bitpar" and res.trace.count == res.length == 4
    assert lcs_reconstruct(from_text(""), y, backend="bitpar").trace.count == 0


_small_pairs = st.integers(1, 5).flatmap(
    lambda sigma: st.tuples(
        st.lists(st.integers(0, sigma - 1), max_size=40),
        st.lists(st.integers(0, sigma - 1), max_size=40),
    )
)


@settings(max_examples=300, deadline=None)
@given(_small_pairs)
def test_hypothesis_bitpar_vs_oracle(pair):
    x, y = Sequence(tuple(pair[0])), Sequence(tuple(pair[1]))
    expected = int(dp_oracle(x, y)[len(x)][len(y)])
    assert lcs_length(x, y, backend="bitpar").length == expected
    _check_bitpar_chain(x, y)


def test_reconstruct_rejects_unknown_backend():
    with pytest.raises(ValueError):
        lcs_reconstruct(from_text("ab"), from_text("ab"), backend="veb")


def test_reconstruction_memory_cap():
    x, y = from_text("aaaa"), from_text("aaaa")
    with pytest.raises(ReconstructionCapError) as exc:
        lcs_reconstruct(x, y, memory_cap=8)
    assert exc.value.r == 16


def test_dp_cap():
    x = Sequence(tuple(range(100)))
    with pytest.raises(DpCapError):
        dp_oracle(x, x, cap=1000)


def test_empty_inputs_short_circuit():
    empty = from_text("")
    res = lcs_length(empty, from_text("abc"))
    assert res.length == 0 and res.counters.update == 0
    res = lcs_length(from_text("abc"), empty)
    assert res.length == 0


def test_array_row_costs_exposed():
    x, y = from_text("abcbdab"), from_text("bdcaba")
    res = lcs_length(x, y, backend="array")
    assert res.row_costs is not None
    total_updates = sum(rc.updates for rc in res.row_costs)
    assert total_updates == res.stats.r
    for rc in res.row_costs:
        assert rc.comparisons <= rc.alpha_start + rc.updates + 1
