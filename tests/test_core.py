import itertools
import random
import sys
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcseq.core import (
    BITPAR_WORDS_PER_MATCH,
    KERNEL_NAMES,
    LENGTH_BACKENDS,
    DpCapError,
    OpCounters,
    ReconstructionCapError,
    TraceTable,
    _bisect_trace,
    _bitpar_trace,
    _choose_kernel,
    _distinct_trace,
    _match_rows,
    _symbol_masks,
    _threshold_rows,
    dp_oracle,
    extract_lcs,
    is_subsequence,
    lcs_length,
    lcs_reconstruct,
    validate_common_subsequence,
)
from lcseq import core
from lcseq.matching import (
    MatchStats, Sequence, build_position_lists, column_map, count_matches, tokenize,
)
from lcseq.threshold import BACKEND_NAMES, ArrayBackend

from helpers import brute_force_lcs_length, brute_force_matches, from_text


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
    for m in (1, 10, 1000, 60_000, 10**6):
        for n in (m, 2 * m):
            assert _choose_kernel(m, m, n) == "bisect"
            assert _choose_kernel(0, m, n) == "bisect"
            if m >= 10:
                assert _choose_kernel(m * n // 2, m, n) == "bitpar"
    assert _choose_kernel(0, 0, 0) == "bisect"


def test_bitpar_row_memory_bound():
    """Where the chooser picks bitpar, m * ceil(n/64) words < BITPAR_WORDS_PER_MATCH * R."""
    rng = random.Random(64)
    picked = 0
    for _ in range(20_000):
        m, n = rng.randint(0, 1 << 17), rng.randint(0, 1 << 17)
        r = int(m * n * rng.random() ** 4)
        if _choose_kernel(r, m, n) == "bitpar":
            picked += 1
            assert m * ((n + 63) // 64) < BITPAR_WORDS_PER_MATCH * r, (r, m, n)
    assert picked > 1000
    # and the builder stores what the bound counts: m + 1 rows of n bits each
    # (CPython: 4 bytes per 30-bit digit plus a header), a mask and its
    # complement per symbol x and y share, or in bytes mode per byte of y
    # (2 * sigma ints, inside the bound while sigma is small next to m), a few
    # temporaries, and the O(L) chain; a bytes pair builds its masks from bit
    # planes, and its rows carry into the bits above n
    for kind, sigma, m, n in ((tuple, 2, 1500, 2000), (tuple, 4, 2000, 1500),
                              (tuple, 26, 2000, 2000), (bytes, 4, 2000, 1500),
                              (bytes, 256, 2000, 2000)):
        x = Sequence(kind(rng.randrange(sigma) for _ in range(m)))
        y = Sequence(kind(rng.randrange(sigma) for _ in range(n)))
        r = count_matches(x, build_position_lists(y)).r
        assert _choose_kernel(r, m, n) == "bitpar"
        tracemalloc.start()
        try:
            index = core._plan(x, y, "bitpar")[3]
            _bitpar_trace(x.symbols, y.symbols, index, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_bytes = 32 + 4 * -(-n // 30)
        # per row of x: a list slot for its row, and two chain entries (slot + int)
        assert peak < (m + 1 + sigma + 4) * row_bytes + 96 * (m + 1) + 4096, (sigma, peak)


def test_bitpar_kernels_build_no_index():
    """The length kernel sweeps ``_plan``'s (mask, complement) pairs and builds no index."""
    rng = random.Random(7)
    n = 4096
    x, y = Sequence(rng.randbytes(n)), Sequence(rng.randbytes(n))
    index = core._plan(x, y, "bitpar")[3]
    tracemalloc.start()
    try:
        length = core._bitpar_rows(x.symbols, index, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert length == lcs_length(x, y, backend="bisect").length
    row_bytes = 32 + 4 * -(-n // 30)
    assert peak < 8 * row_bytes, peak / row_bytes


def test_kernel_rows_equal_array_backend():
    """After every row the kernel's S is the array set's; every backend's counts are the replay's."""
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
        r = deletes = 0
        for i, sym in enumerate(x.symbols, start=1):
            ts.begin_row()
            for j in pl.lists.get(sym, ()):
                r += 1
                deletes += ts.update(j) is not None
            rows = _match_rows(Sequence(x.symbols[:i]), pl.lists)
            assert _threshold_rows(rows)[1:] == ts.contents(), (idx, i)
        # the replay's own replacements, not R - L, fix the Delete count
        replayed = OpCounters(succ=r, pred=0, insert=r, delete=deletes, update=r)
        results = {b: lcs_length(x, y, backend=b) for b in LENGTH_BACKENDS}
        results["reconstruct"] = lcs_reconstruct(x, y)
        for b, res in results.items():
            assert res.counters == replayed, (idx, b)
            # the replay's own Succ + Insert + Delete
            assert res.counters.structure_total() == 2 * r + deletes, (idx, b)


def test_bitpar_rows_hand_back_the_array_set():
    """The rows that ``_bitpar_rows`` appends: after row i, V's zero bits below n are S_i."""
    rng = random.Random(29)
    for idx in range(3000):
        kind, sigma = (bytes, tuple)[idx % 2], (1, 2, 3, 4, 26, 256)[idx // 2 % 6]
        alphabet = rng.sample(range(256), sigma)
        x = Sequence(kind(rng.choice(alphabet) for _ in range(rng.randint(0, 40))))
        y = Sequence(kind(rng.choice(alphabet) for _ in range(rng.randint(0, 40))))
        n = len(y)
        pairs = core._plan(x, y, "bitpar")[3]
        rows = [(1 << n) - 1]
        length = core._bitpar_rows(x.symbols, pairs, n, rows)
        assert len(rows) == len(x) + 1, idx
        lists = build_position_lists(y).lists
        ts = ArrayBackend(max(n, 1))
        for i in range(len(x) + 1):
            if i:
                ts.begin_row()
                for j in lists.get(x.symbols[i - 1], ()):
                    ts.update(j)
            assert [j for j in range(1, n + 1) if not rows[i] >> (j - 1) & 1] == ts.contents(), (
                idx, i)
        assert length == ts.size(), idx


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
    # bytes and lines tokens: the whole sequence is a subsequence, one token more is not
    for seq in (tokenize(b"abcab", "bytes"), tokenize(b"a\nb\na\n", "lines")):
        whole = tuple(seq.symbols)
        assert is_subsequence(whole, seq)
        for extra in whole:
            assert not is_subsequence((*whole, extra), seq)
            assert not is_subsequence((extra, *whole), seq)


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
        expected = int(dp_oracle(x, y)[len(x)][len(y)])
        for backend in (*BACKEND_NAMES, *KERNEL_NAMES):
            assert lcs_length(x, y, backend=backend).length == expected
        for backend in ("auto", *KERNEL_NAMES):
            res = lcs_reconstruct(x, y, backend=backend)
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
            for j in pl.lists.get(sym, ()):
                ts.update(j)
        table = dp_oracle(x, y)
        final_row = table[len(x)]
        contents = ts.contents()
        assert len(contents) == int(final_row[len(y)])
        for t, s_t in enumerate(contents, start=1):
            assert s_t == min(j for j in range(len(y) + 1) if final_row[j] == t)


def test_chain_geometry():
    rng = random.Random(41)
    for _ in range(40):
        x, y = rand_seq(rng, 50, 2), rand_seq(rng, 50, 2)
        pl = build_position_lists(y)
        trace, _, _ = _bisect_trace(_match_rows(x, pl.lists), count_matches(x, pl).r)
        # matches are numbered row by row in enumeration order
        row = [0]
        for i, sym in enumerate(x.symbols, start=1):
            row.extend([i] * len(pl.lists.get(sym, ())))
        assert len(row) == trace.count + 1
        for k in range(1, trace.count + 1):
            p = trace.predecessor[k]
            if p:
                assert trace.column[p] < trace.column[k]
                assert row[p] < row[k]


def test_bisect_trace_equals_column_keyed_reference():
    # Hunt-Szymanski's back-pointer kept per column of y: the last match that
    # took column S[k-1].  The sweep is the plain successor-replacement rule.
    rng = random.Random(43)
    for sigma in (1, 2, 3, 4, 26):
        for _ in range(600):
            x, y = rand_seq(rng, 40, sigma), rand_seq(rng, 40, sigma)
            pl = build_position_lists(y)
            s, last_by_column = [0], {0: 0}
            predecessor, column = [0], [0]
            for sym in x.symbols:
                for j in pl.lists.get(sym, ()):
                    k = bisect_left(s, j)
                    if k == len(s):
                        s.append(j)
                    else:
                        s[k] = j
                    predecessor.append(last_by_column[s[k - 1]])
                    column.append(j)
                    last_by_column[j] = len(column) - 1
            trace, last, length = _bisect_trace(_match_rows(x, pl.lists), count_matches(x, pl).r)
            assert trace.predecessor == predecessor
            assert trace.column == column
            assert trace.count == len(column) - 1
            assert (last, length) == (last_by_column[s[-1]], len(s) - 1)


def _check_bitpar_chain(x, y):
    expected = int(dp_oracle(x, y)[len(x)][len(y)])
    index = core._plan(x, y, "bitpar")[3]
    trace, last, length = _bitpar_trace(x.symbols, y.symbols, index, len(y))
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


def _walk_pairs(rng, count):
    """Random pairs of every shape the walk meets: x == y, near copies, empty sides."""
    for idx in range(count):
        sigma = (1, 2, 3, 4, 26)[idx % 5]
        x = rand_seq(rng, 60, sigma)
        shape = idx // 5 % 5
        if shape == 0:
            y = x
        elif shape == 1:
            y = Sequence(tuple(s if rng.random() < 0.9 else rng.randrange(sigma)
                               for s in x.symbols))
        elif shape == 2:
            x, y = Sequence(()), x
        elif shape == 3:
            y = Sequence(())
        else:
            y = rand_seq(rng, 60, sigma)
        yield x, y


def test_bitpar_walk_vs_oracle():
    """The three-rule walk gives an LCS on sigma 1-26, lengths 0-60, x == y and empty sides."""
    for x, y in _walk_pairs(random.Random(1975), 1000):
        _check_bitpar_chain(x, y)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((1, 2, 3, 4, 26)).flatmap(
        lambda sigma: st.tuples(
            st.lists(st.integers(0, sigma - 1), max_size=60),
            st.lists(st.integers(0, sigma - 1), max_size=60),
            st.booleans(),
        )
    )
)
def test_hypothesis_bitpar_walk(case):
    a, b, same = case
    x = Sequence(tuple(a))
    _check_bitpar_chain(x, x if same else Sequence(tuple(b)))


@pytest.mark.parametrize("n", [0, 1, 7, 64, 65, 300])
def test_bitpar_walk_identical_is_diagonal(n):
    # every step from (n, n) is a diagonal, so the chain is columns 1..n
    rng = random.Random(n)
    for sigma in (1, 4, 256):
        x = Sequence(tuple(rng.randrange(sigma) for _ in range(n)))
        index = core._plan(x, x, "bitpar")[3]
        trace, last, length = _bitpar_trace(x.symbols, x.symbols, index, n)
        assert trace.column == list(range(n + 1)) and last == length == n


@pytest.mark.parametrize(
    "a, b, chain",
    [
        # left (7, 6) -> (7, 5), diagonals, left (5, 3) -> (5, 2), diagonals
        ("abcbdab", "bdcaba", [1, 2, 4, 5]),
        # left (2, 2) -> (2, 1), then a diagonal
        ("ab", "ba", [1]),
        # up (2, 1): bit 0 of V_2 clear and a != b; then a diagonal
        ("ba", "b", [1]),
        # up, diagonal, three times
        ("axbycz", "abc", [1, 2, 3]),
        # all three: left (3, 3) -> (3, 2), diagonal, up (2, 1), diagonal
        ("abc", "acb", [1, 2]),
        # diagonal, up (3, 2), diagonals
        ("abxc", "abc", [1, 2, 3]),
    ],
)
def test_bitpar_walk_examples(a, b, chain):
    x, y = from_text(a), from_text(b)
    trace, _, _ = _bitpar_trace(x.symbols, y.symbols, core._plan(x, y, "bitpar")[3], len(y))
    assert trace.column[1:] == chain


def test_bitpar_walk_steps_are_linear():
    """The walk takes at most m + n steps: each one lowers i, j or both."""
    code = _bitpar_trace.__code__

    def run(x, y):
        budget = 8 * (len(x) + len(y)) + 64  # line events of the walk; _bitpar_rows sweeps x
        lines = 0

        def local(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
                if lines > budget:
                    raise RuntimeError(f"more than {budget} line events")
            return local

        old = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
        try:
            index = core._plan(x, y, "bitpar")[3]
            return _bitpar_trace(x.symbols, y.symbols, index, len(y))
        finally:
            sys.settrace(old)

    for x, y in _walk_pairs(random.Random(2004), 100):
        _, _, length = run(x, y)
        assert length == int(dp_oracle(x, y)[len(x)][len(y)])


def test_reconstruct_rejects_unknown_backend():
    with pytest.raises(ValueError):
        lcs_reconstruct(from_text("ab"), from_text("ab"), backend="veb")


@pytest.mark.parametrize("backend", ["veb", "tree", "array", "bogus"])
def test_reconstruct_checks_backend_name_before_the_cap(backend):
    # R = 12 > cap 0: a name reconstruction does not run is still a ValueError
    x = from_text("abcabc")
    with pytest.raises(ValueError, match="unknown backend"):
        lcs_reconstruct(x, x, memory_cap=0, backend=backend)


@pytest.mark.parametrize("backend", ["bogus", "AUTO", "", "dp_oracle"])
def test_length_checks_backend_name_before_any_index(monkeypatch, backend):
    def refuse(*args):
        raise AssertionError("an index was built for an unknown backend")

    for name in ("column_map", "build_position_lists", "count_matches"):
        monkeypatch.setattr(core, name, refuse)
    with pytest.raises(ValueError, match="unknown backend") as exc:
        lcs_length(from_text("abcbdab"), from_text("bdcaba"), backend=backend)
    assert set(LENGTH_BACKENDS) == {"auto", "bisect", "bitpar", "veb", "tree", "array"}
    for name in LENGTH_BACKENDS:
        assert repr(name) in str(exc.value)


@pytest.mark.parametrize("backend", LENGTH_BACKENDS)
def test_length_ignores_given_position_lists(backend):
    # lists of another sequence, of another length ("xyz") or of y's ("aaaaaa"),
    # would give L = 0 or L = 2 if used; the index always comes from y
    x, y = from_text("abcbdab"), from_text("bdcaba")
    expected = lcs_length(x, y, backend=backend)
    assert expected.length == 4 and expected.stats.n == 6
    for other in ("xyz", "aaaaaa"):
        given = build_position_lists(from_text(other))
        assert lcs_length(x, y, backend=backend, position_lists=given) == expected, other


@pytest.mark.parametrize("b", ["xyz", ""])
def test_named_sets_without_matches(b):
    # R = 0 runs the same row loop as any other input: no update, L = 0
    x, y = from_text("abc"), from_text(b)
    res = lcs_length(x, y, backend="array")
    assert (res.length, res.row_costs, res.counters) == (0, [], OpCounters())
    for backend in ("veb", "tree"):
        res = lcs_length(x, y, backend=backend)
        assert (res.length, res.counters) == (0, OpCounters())


def _near_copy(rng, n, sigma, changed):
    """A random x and a y with a fraction ``changed`` of its tokens redrawn."""
    xs = [rng.randrange(sigma) for _ in range(n)]
    ys = list(xs)
    for k in rng.sample(range(n), round(changed * n)):
        ys[k] = rng.randrange(sigma)
    return Sequence(tuple(xs)), Sequence(tuple(ys))


def test_length_and_reconstruct_pick_one_kernel():
    """``auto`` takes one kernel for the length and the LCS of every pair.

    The band pairs (sigma = 256, n near 400, 5% changed) have R/m near
    2.5, where bitpar's cost per row is close to bisect's cost per match.
    """
    rng = random.Random(1986)
    pairs = []
    for idx in range(96):
        sigma = (2, 4, 26, 256)[idx % 4]
        n = rng.randint(0, 600)
        if idx % 2:
            pairs.append(_near_copy(rng, n, sigma, 0.05))
        else:
            pairs.append((rand_seq(rng, 600, sigma), rand_seq(rng, 600, sigma)))
    pairs += [_near_copy(rng, rng.randint(380, 420), 256, 0.05) for _ in range(16)]
    band = 0
    for x, y in pairs:
        length = lcs_length(x, y)
        recon = lcs_reconstruct(x, y)
        assert length.backend == recon.backend, (len(x), len(y), length.stats)
        assert recon.length == length.length
        assert validate_common_subsequence(recon.subsequence, x, y, length.length)
        band += 2.2 < length.stats.r / max(len(x), 1) < 2.6
    assert band >= 8


@pytest.mark.parametrize("a, b", [("ab", "cd"), ("ab", "ba"), ("aaaa", "aaaa")])
def test_reconstruct_rejects_negative_cap(a, b):
    # R = 0 (and any other R) meets a negative cap with ValueError, not a cap error
    with pytest.raises(ValueError, match="non-negative"):
        lcs_reconstruct(from_text(a), from_text(b), memory_cap=-1)
    assert lcs_reconstruct(from_text(a), from_text("cd"), memory_cap=0).length == 0


def test_reconstruction_memory_cap():
    x, y = from_text("aaaa"), from_text("aaaa")
    with pytest.raises(ReconstructionCapError) as exc:
        lcs_reconstruct(x, y, memory_cap=8)
    assert exc.value.r == 16


def test_named_bitpar_reconstruction_keeps_the_cap_bound(monkeypatch):
    # R = 4096 is within the cap, but bitpar by name would keep 4096 rows of
    # 64 words, over 21 * 4096; it raises before any mask is built
    x = Sequence(tuple(range(4096)))
    assert lcs_reconstruct(x, x, memory_cap=4096).backend == "bisect"
    monkeypatch.setattr(core, "_symbol_masks", None)
    with pytest.raises(ReconstructionCapError, match="262144 bitpar row words") as exc:
        lcs_reconstruct(x, x, memory_cap=4096, backend="bitpar")
    assert (exc.value.r, exc.value.cap) == (4096, 4096)


def test_named_bitpar_reconstruction_keeps_the_cap_bound_on_bytes(monkeypatch):
    # R = 4096 is within the cap, but bitpar by name would keep 4096 rows of
    # 64 words, over 21 * 4096; the planner builds y's masks and no row
    x, y = from_text("a" * 4096), from_text("b" * 4095 + "a")
    assert lcs_reconstruct(x, y, memory_cap=4096).backend == "bisect"
    monkeypatch.setattr(core, "_bitpar_trace", None)
    with pytest.raises(ReconstructionCapError, match="262144 bitpar row words") as exc:
        lcs_reconstruct(x, y, memory_cap=4096, backend="bitpar")
    assert (exc.value.r, exc.value.cap) == (4096, 4096)


def test_dp_cap():
    # 8193^2 cells are just over the 2^26 cap; the check runs before numpy allocates
    x = Sequence(tuple(range(8192)))
    with pytest.raises(DpCapError):
        dp_oracle(x, x)


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


# Pairs whose y has distinct tokens: x draws from a wider range, so it has
# tokens y lacks, and it may repeat tokens.  Sizes reach past
# DISTINCT_PREFIX so that the full map is built after the prefix passes.
_distinct_y_pairs = st.integers(0, 160).flatmap(
    lambda width: st.tuples(
        st.lists(st.integers(0, width + 8), max_size=120),
        st.lists(st.integers(0, width), unique=True, max_size=min(width + 1, 120)),
    )
)


def _check_distinct_path(x: Sequence, y: Sequence) -> None:
    cols = column_map(x, y)
    assert cols is not None
    expected = int(dp_oracle(x, y)[len(x)][len(y)])
    pl = build_position_lists(y)
    r = count_matches(x, pl).r
    assert len(_threshold_rows(_match_rows(x, pl.lists))) - 1 == expected
    for backend in ("auto", "bisect"):
        res = lcs_length(x, y, backend=backend)
        assert (res.length, res.stats.r, res.backend) == (expected, r, "bisect")
        rec = lcs_reconstruct(x, y, backend=backend)
        assert (rec.length, rec.stats.r, rec.backend) == (expected, r, "bisect")
        assert validate_common_subsequence(rec.subsequence, x, y, expected)
    # the same records as the position-list trace, so the same LCS is printed
    trace, last, length = _distinct_trace(cols)
    ref, ref_last, ref_length = _bisect_trace(_match_rows(x, pl.lists), r)
    assert (trace, last, length) == (ref, ref_last, ref_length)


@settings(max_examples=300, deadline=None)
@given(_distinct_y_pairs)
def test_hypothesis_distinct_y_vs_oracle(pair):
    _check_distinct_path(Sequence(tuple(pair[0])), Sequence(tuple(pair[1])))


@st.composite
def _count_pairs(draw):
    """A bytes, tuple or mixed pair over sigma of the 256 byte values, or a distinct-y tuple pair."""
    if draw(st.booleans()):
        a, b = draw(_distinct_y_pairs)
        return Sequence(tuple(a)), Sequence(tuple(b))
    sigma = draw(st.integers(1, 256))
    kx, ky = draw(st.sampled_from(((bytes, bytes), (tuple, tuple), (bytes, tuple), (tuple, bytes))))
    tokens = st.lists(st.integers(256 - sigma, 255), max_size=60)
    return Sequence(kx(draw(tokens))), Sequence(ky(draw(tokens)))


@settings(max_examples=300, deadline=None)
@given(_count_pairs())
def test_hypothesis_count_step_agrees_across_backends(pair):
    x, y = pair
    expected = MatchStats(r=len(brute_force_matches(x, y)), n=len(y), m=len(x))
    for backend in ("auto", "bisect", "bitpar", "veb"):
        stats, form, index = core._count(x, y, backend)
        assert stats == expected, backend
        if form == "masks":
            assert set(index) == set(x.symbols) & set(y.symbols), backend


_INDEX_BUILDERS = ("column_map", "_byte_masks", "_symbol_masks", "build_position_lists",
                   "count_matches")


@settings(max_examples=300, deadline=None)
@given(_count_pairs())
def test_hypothesis_plan_converts_at_most_once(pair):
    """``_plan`` hands over one index, names its form and builds each index at most once."""
    x, y = pair
    lists = build_position_lists(y).lists
    shared = set(x.symbols).intersection(lists)
    # a bytes pair counts with its masks, so only other pairs reach the column map
    bytes_pair = type(x.symbols) is bytes and type(y.symbols) is bytes
    distinct = len(lists) == len(y) and not bytes_pair
    for backend in ("auto", "bisect", "bitpar", "veb"):
        calls = dict.fromkeys(_INDEX_BUILDERS, 0)
        with pytest.MonkeyPatch.context() as mp:
            for name in _INDEX_BUILDERS:
                def counted(*args, _name=name, _build=getattr(core, name)):
                    calls[_name] += 1
                    return _build(*args)

                mp.setattr(core, name, counted)
            kernel, _, form, index = core._plan(x, y, backend)
        assert max(calls.values()) == 1, (backend, calls)
        assert kernel == backend or backend == "auto"
        if kernel == "bitpar":
            assert form == "masks"
            full = (1 << len(y)) - 1
            assert {s: index[s] for s in shared} == {
                s: (m, full ^ m) for s, m in _symbol_masks(x.symbols, lists).items()}
        elif backend == "auto" and distinct:
            assert form == "cols"
            assert index == [lists[s][0] for s in x.symbols if s in lists]
        else:
            assert form == "lists", (backend, form)
            assert {s: index[s] for s in shared} == {s: lists[s] for s in shared}


def test_distinct_y_examples():
    # repeated x tokens hit the append test with j == S[-1]
    for a, b in [("aa", "a"), ("abab", "ab"), ("", ""), ("abc", ""), ("", "abc"),
                 ("cbacba", "abc"), ("zzyyxx", "xyz")]:
        _check_distinct_path(from_text(a), from_text(b))
    rng = random.Random(61)
    for _ in range(100):
        y = Sequence(tuple(rng.sample(range(400), rng.randint(0, 300))))
        x = Sequence(tuple(rng.randrange(450) for _ in range(rng.randint(0, 300))))
        _check_distinct_path(x, y)


def test_distinct_y_builds_no_position_lists(monkeypatch):
    def refuse(*args):
        raise AssertionError("the distinct-y path built position lists")

    # tuple sequences: a bytes pair counts R with its masks, not the column map
    x, y = Sequence(tuple(b"abcbdab")), Sequence(tuple(b"bdca"))
    # `bisect` by name is the position-list kernel, whatever y is
    built = []
    monkeypatch.setattr(core, "build_position_lists",
                        lambda seq: built.append(seq) or build_position_lists(seq))
    assert lcs_length(x, y, backend="bisect").length == 3
    assert lcs_reconstruct(x, y, backend="bisect").length == 3
    assert built == [y, y]
    monkeypatch.setattr(core, "build_position_lists", refuse)
    monkeypatch.setattr(core, "count_matches", refuse)
    assert lcs_length(x, y).length == 3
    assert lcs_reconstruct(x, y).length == 3


def _check_one_repeat(x: Sequence, y_list: list, src: int, at: int) -> None:
    """Insert a copy of y's token src at position at; the general path must still agree."""
    y_list = list(y_list) or [0]
    y_list.insert(at % (len(y_list) + 1), y_list[src % len(y_list)])
    y = Sequence(tuple(y_list))
    assert column_map(x, y) is None
    expected = int(dp_oracle(x, y)[len(x)][len(y)])
    for backend in ("auto", "bisect"):
        assert lcs_length(x, y, backend=backend).length == expected
        rec = lcs_reconstruct(x, y, backend=backend)
        assert validate_common_subsequence(rec.subsequence, x, y, expected)


@settings(max_examples=200, deadline=None)
@given(_distinct_y_pairs, st.integers(0, 200), st.integers(0, 200))
def test_hypothesis_one_repeat_takes_general_path(pair, src, at):
    _check_one_repeat(Sequence(tuple(pair[0])), pair[1], src, at)


def test_one_repeat_past_the_prefix_takes_general_path():
    rng = random.Random(62)
    for _ in range(100):
        y_list = rng.sample(range(400), rng.randint(100, 300))
        x = Sequence(tuple(rng.choice(y_list) for _ in range(rng.randint(50, 300))))
        _check_one_repeat(x, y_list, rng.randrange(400), rng.randrange(100, 400))


def test_distinct_y_cap_checked_before_the_trace(monkeypatch):
    monkeypatch.setattr(core, "_distinct_trace", None)  # a call would raise TypeError
    x, y = Sequence(tuple(b"abcabc")), Sequence(tuple(b"cab"))  # tuples take the column map
    with pytest.raises(ReconstructionCapError) as exc:
        lcs_reconstruct(x, y, memory_cap=5)
    assert exc.value.r == 6


def test_dp_oracle_takes_line_tokens():
    x = Sequence((b"a", b"b\x00", b"c", b"b"))
    y = Sequence((b"b", b"c", b"a", b"b\x00"))
    # b"b\x00" and b"b" differ; a fixed-width bytes array would merge them
    assert dp_oracle(x, y)[4][4] == 2
