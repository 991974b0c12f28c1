"""LCS drivers: two kernels, the counted threshold sets, reconstruction, the DP oracle.

The length driver walks the first sequence row by row.  The default
(``auto``) runs one of two stdlib kernels, picked by ``_choose_kernel``
from R (which ``count_matches`` gives before any work), m and n:

* ``bisect`` (``_threshold_rows``), the Hunt-Szymanski kernel.  It feeds
  each row's match columns, in strictly decreasing order, to a threshold
  set kept as a plain sorted list; each match costs at most one bounded
  ``bisect_left``, so the run is O(R log L + n).  It wins where rows have
  few matches (diff-like inputs, R close to m).
* ``bitpar`` (``_bitpar_rows``), the bit-parallel row update of Allison
  and Dix (1986) and Hyyro (2004).  Bit j-1 of an n-bit int V is 0 where
  the DP row steps up at column j; one add/and/or/sub per row of x
  updates it, so the run is O(m * ceil(n/64)) word operations whatever
  R is.  It wins where rows have many matches (small alphabets).

When every token of y is distinct, each row has at most one match, and
``bisect`` needs no position lists: ``column_map`` gives each row's
column from one dict built in C, R is the count of rows that have one,
and the sweep is the single-match slot rule (Hunt and Szymanski 1977
reduce to a longest increasing subsequence of the columns).  ``auto``
picks ``bisect`` there anyway, since R <= m.  ``column_map`` rules the
path out in O(1) when y repeats a token early.

A named backend (``BACKEND_NAMES``: ``veb``, ``tree``, ``array``) runs
the counted ``ThresholdSet`` that ``lcseq.threshold`` builds, imported
only then; those are the paper's structures and the references the tests audit.
``LENGTH_BACKENDS`` lists every name ``lcs_length`` takes.  Each entry point
derives its index from (x, y) and checks its arguments before building it.

``_plan`` does all the work before a kernel (the column map, or the
position lists and R, and the choice), so ``lcs_length`` and
``lcs_reconstruct`` take the same kernel on every input.  Reconstruction
runs that kernel's trace builder: ``_bisect_trace`` and
``_distinct_trace`` record each match's predecessor and column (O(R)
space); ``_bitpar_trace`` keeps the rows and walks back the L-column
chain in at most m + n steps.  Where ``auto`` picks ``bitpar`` its rows
hold fewer than ``BITPAR_WORDS_PER_MATCH * R`` 64-bit words, and by name
at most that many times the cap, both known before the work starts.
``extract_lcs`` reads either trace back in O(L).  A dense Wagner-Fischer
table serves as the independent oracle.
"""

from __future__ import annotations

from bisect import bisect_left

from .matching import (
    MatchStats,
    PositionLists,
    Sequence,
    _Record,
    build_position_lists,
    column_map,
    count_matches,
)

TYPE_CHECKING = False  # type checkers take this as true; no `typing` import on the default path
if TYPE_CHECKING:
    from collections.abc import Hashable

    import numpy as np

    from .threshold import RowCost

__all__ = [
    "OpCounters",
    "TraceTable",
    "LcsResult",
    "ReconstructionCapError",
    "DpCapError",
    "lcs_length",
    "lcs_reconstruct",
    "extract_lcs",
    "dp_oracle",
    "is_subsequence",
    "validate_common_subsequence",
    "DEFAULT_TRACE_CAP",
    "DEFAULT_DP_CAP",
    "KERNEL_NAMES",
    "BACKEND_NAMES",
    "LENGTH_BACKENDS",
    "BITPAR_WORDS_PER_MATCH",
    "BENCH_BACKENDS",
    "STRUCTURES",
]

DEFAULT_TRACE_CAP = 1 << 26  # max matches R that reconstruction takes on
DEFAULT_DP_CAP = 1 << 26  # max cells in the dense oracle table
KERNEL_NAMES = ("bisect", "bitpar")  # the names the two kernels report
BACKEND_NAMES = ("veb", "tree", "array")  # the counted sets, in lcseq.threshold
LENGTH_BACKENDS = ("auto", *KERNEL_NAMES, *BACKEND_NAMES)  # the names lcs_length takes

# The `lcseq bench` choices, kept here rather than in `lcseq.bench` so that
# the CLI parser lists them without importing the benchmark harness:
# the length methods a bench case runs by name, and its input shapes.
BENCH_BACKENDS = (*LENGTH_BACKENDS, "dp_oracle")
STRUCTURES = ("uniform_random", "repeated_block", "near_identical")


# The kernel rule, in units of one 64-bit word of bitpar row work: bitpar
# costs _BITPAR_ROW_WORDS plus ceil(n/64) words per row of x, and bisect
# BITPAR_WORDS_PER_MATCH words per match.  2-core x86_64, Python 3.11:
# bitpar length costs about 0.4 us + 0.012 us per word per row and bisect
# about 0.25 us per match.  Reconstruction takes the same rule: with
# R/m from 2.4 to 10.7 and n up to 8192, the bitpar builder reconstructs
# faster than the bisect trace where the rule picks it.  Where
# _choose_kernel picks bitpar, m * ceil(n/64) < BITPAR_WORDS_PER_MATCH * R.
_BITPAR_ROW_WORDS = 33
BITPAR_WORDS_PER_MATCH = 21


def _choose_kernel(r: int, m: int, n: int) -> str:
    """``bitpar`` when m rows of bitpar work cost less than R matches of bisect work.

    On R <= m (one match per row or fewer, as in line diffs) it always
    picks ``bisect``, because a row costs more than a match.
    """
    if m * (_BITPAR_ROW_WORDS + (n + 63) // 64) < BITPAR_WORDS_PER_MATCH * r:
        return "bitpar"
    return "bisect"


class ReconstructionCapError(MemoryError):
    """R, or a named ``bitpar``'s row words, exceeds the cap; caller may fall back to length-only."""

    def __init__(self, r: int, cap: int, words: int = 0):
        need = f"{words} bitpar row words" if words else f"R = {r} matches"
        per = f"{BITPAR_WORDS_PER_MATCH} * " if words else ""
        super().__init__(f"reconstruction needs {need}, cap is {per}{cap}")
        self.r = r
        self.cap = cap


class DpCapError(MemoryError):
    def __init__(self, cells: int, cap: int):
        super().__init__(f"dense table needs {cells} cells, cap is {cap}")
        self.cells = cells
        self.cap = cap


def check_dp_cap(m: int, n: int) -> None:
    """Raise ``DpCapError`` when the oracle's (m+1) x (n+1) table exceeds ``DEFAULT_DP_CAP``."""
    if (m + 1) * (n + 1) > DEFAULT_DP_CAP:
        raise DpCapError((m + 1) * (n + 1), DEFAULT_DP_CAP)


class OpCounters(_Record):
    """Counts of each set operation, and of ``update`` calls."""

    __slots__ = ("succ", "pred", "insert", "delete", "update")

    def __init__(self, succ: int = 0, pred: int = 0, insert: int = 0, delete: int = 0,
                 update: int = 0):
        self.succ = succ
        self.pred = pred
        self.insert = insert
        self.delete = delete
        self.update = update

    def structure_total(self) -> int:
        """Succ + Pred + Insert + Delete, the per-match accounting total."""
        return self.succ + self.pred + self.insert + self.delete


class TraceTable(_Record):
    """Per-match reconstruction records (1-indexed by match number).

    predecessor[k] is the match number of the chain predecessor (0 =
    none) and column[k] the matched column.  The bisect builder records
    all R matches; the bitpar builder records only the LCS chain, so
    there count = L, predecessor[k] = k - 1 and column[k] is the k-th
    LCS column.
    """

    __slots__ = ("predecessor", "column", "count")

    def __init__(self, predecessor: list[int], column: list[int], count: int = 0):
        self.predecessor = predecessor
        self.column = column
        self.count = count


class LcsResult(_Record):
    """An entry point's result; only ``lcs_reconstruct`` sets ``subsequence`` and ``trace``."""

    __slots__ = ("length", "subsequence", "stats", "counters", "backend", "row_costs", "trace")

    def __init__(
        self,
        length: int,
        subsequence: tuple[Hashable, ...] | None,
        stats: MatchStats,
        counters: OpCounters,
        backend: str,
        row_costs: list[RowCost] | None = None,
        trace: TraceTable | None = None,
    ):
        self.length = length
        self.subsequence = subsequence
        self.stats = stats
        self.counters = counters
        self.backend = backend
        self.row_costs = row_costs
        self.trace = trace


def _check_op_budget(counters: OpCounters, r: int) -> None:
    """At most four structure operations per match (succ, pred, insert, delete)."""
    ops = counters.structure_total()
    if ops > 4 * r:
        raise RuntimeError(f"{ops} structure operations for R = {r} exceeds 4R")


def _threshold_rows(symbols: tuple[Hashable, ...], lists: dict[Hashable, list[int]]) -> list[int]:
    """Final threshold set S of the Hunt-Szymanski sweep, as a sorted list.

    S[0] is a 0 sentinel and S[1..L] the set.  A row's columns arrive in
    decreasing order, so the slot k that took the previous column bounds
    the next one's: it goes to slot k when S[k-1] < j, and otherwise to the
    slot that ``bisect_left`` finds below k-1.  Only a row's first column
    can append.  After every row S[1:] equals ``ArrayBackend``'s contents.
    """
    s = [0]
    for sym in symbols:
        positions = lists.get(sym)
        if positions is None:
            continue
        k = len(s)
        for j in positions:
            if s[k - 1] >= j:
                k = bisect_left(s, j, 1, k - 1)
                s[k] = j
            elif k == len(s):
                s.append(j)
            else:
                s[k] = j
    return s


def _symbol_masks(
    symbols: tuple[Hashable, ...], lists: dict[Hashable, list[int]]
) -> dict[Hashable, int]:
    """Bit j-1 set for each column j of the symbol, for the symbols x and y share."""
    masks = {}
    for sym in set(symbols).intersection(lists):
        mask = 0
        for j in lists[sym]:
            mask |= 1 << (j - 1)
        masks[sym] = mask
    return masks


def _bitpar_rows(symbols: tuple[Hashable, ...], lists: dict[Hashable, list[int]], n: int) -> int:
    """LCS length by the bit-parallel row update; L is the count of 0 bits in V."""
    masks = _symbol_masks(symbols, lists)
    full = (1 << n) - 1
    v = full
    for sym in symbols:
        mask = masks.get(sym)
        if mask is not None:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return n - v.bit_count()


def _kernel_counters(r: int, length: int) -> OpCounters:
    """The counts a counted set makes for the kernel's updates.

    Each match is one update, one successor query and one insert; all but
    the L appends also delete the replaced member.
    """
    return OpCounters(succ=r, insert=r, delete=r - length, update=r)


def _distinct_rows(cols: list[int | None]) -> int:
    """LCS length from a column map: the single-match slot rule over the rows that match.

    Each row has one column j: it is appended when j > S[-1], and
    otherwise replaces S[bisect_left(S, j)].  S[0] is a 0 sentinel.
    """
    s = [0]
    for j in filter(None, cols):
        if j > s[-1]:
            s.append(j)
        else:
            s[bisect_left(s, j)] = j
    return len(s) - 1


def _plan(
    x: Sequence, y: Sequence, backend: str, position_lists: PositionLists | None = None
) -> tuple[str, MatchStats, list[int | None] | None, dict[Hashable, list[int]] | None]:
    """Everything before a kernel runs; returns (backend, stats, cols, lists).

    Under ``auto`` and ``bisect``, a y of distinct tokens gives its
    ``column_map`` as cols, the backend ``bisect`` and no lists.
    Otherwise cols is ``None``, lists are y's position lists (built
    unless given), R comes from ``count_matches``, and ``auto`` resolves
    to a kernel by ``_choose_kernel``.
    """
    if backend == "auto" or backend == "bisect":
        cols = column_map(x, y)
        if cols is not None:
            m = len(x)
            return "bisect", MatchStats(r=m - cols.count(None), n=len(y), m=m), cols, None
    pl = position_lists if position_lists is not None else build_position_lists(y)
    stats = count_matches(x, pl)
    if backend == "auto":
        backend = _choose_kernel(stats.r, stats.m, stats.n)
    return backend, stats, None, pl.lists


def lcs_length(
    x: Sequence,
    y: Sequence,
    backend: str = "auto",
    position_lists: PositionLists | None = None,
) -> LcsResult:
    """LCS length of x and y: a kernel for ``auto``/``bisect``/``bitpar``, else the named set.

    A name outside ``LENGTH_BACKENDS`` raises ``ValueError`` before any index
    is built.  Given ``position_lists`` (y's) are not built again; under ``auto``
    and ``bisect`` a y of distinct tokens runs off ``column_map`` instead.
    Lists whose ``length`` is not len(y) raise ``ValueError`` before any work;
    that lists of that length come from y itself is the caller's to ensure.
    """
    if backend not in LENGTH_BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {LENGTH_BACKENDS}")
    if position_lists is not None and position_lists.length != len(y):
        raise ValueError(
            f"position_lists are for a sequence of length {position_lists.length}, "
            f"y has length {len(y)}"
        )
    backend, stats, cols, lists = _plan(x, y, backend, position_lists)
    if cols is not None:
        length = _distinct_rows(cols)
    elif backend == "bisect":
        length = len(_threshold_rows(x.symbols, lists)) - 1
    elif backend == "bitpar":
        length = _bitpar_rows(x.symbols, lists, stats.n)
    else:
        from .threshold import make_threshold_set  # imported here: only a named set loads it

        ts = make_threshold_set(max(stats.n, 1), backend)
        for sym in x.symbols:
            positions = lists.get(sym)
            if not positions:
                continue
            ts.begin_row()
            for j in positions:
                ts.update(j)
        _check_op_budget(ts.counters, stats.r)
        return LcsResult(ts.size(), None, stats, ts.counters, ts.name, ts.row_costs())
    return LcsResult(length, None, stats, _kernel_counters(stats.r, length), backend)


def _bisect_trace(
    symbols: tuple[Hashable, ...], lists: dict[Hashable, list[int]], n: int, r: int
) -> tuple[TraceTable, int, int]:
    """Every match's record on the bisect kernel's slot rule; returns (trace, last match, L).

    Pred(j) is the new occupant's left neighbour S[k-1], and the sentinel
    S[0] = 0 maps to "no predecessor"; the last match holds S[L].
    """
    trace = TraceTable(predecessor=[0] * (r + 1), column=[0] * (r + 1))
    pred_k = trace.predecessor
    col_k = trace.column
    occ = [0] * (n + 1)  # occ[j]: the match number holding column j in S
    m = 0
    s = [0]
    for sym in symbols:
        positions = lists.get(sym)
        if positions is None:
            continue
        k = len(s)
        for j in positions:
            if s[k - 1] >= j:
                k = bisect_left(s, j, 1, k - 1)
                s[k] = j
            elif k == len(s):
                s.append(j)
            else:
                s[k] = j
            m += 1
            pred_k[m] = occ[s[k - 1]]
            col_k[m] = j
            occ[j] = m
    trace.count = m
    return trace, occ[s[-1]], len(s) - 1


def _distinct_trace(cols: list[int | None], n: int) -> tuple[TraceTable, int, int]:
    """``_bisect_trace``'s records from a column map; returns (trace, last match, L).

    Match number k is the k-th row that matches, so the column list is
    the map without its ``None`` entries.
    """
    column = [0, *filter(None, cols)]
    pred_k = [0] * len(column)
    occ = [0] * (n + 1)  # occ[j]: the match number holding column j in S
    s = [0]
    for m, j in enumerate(filter(None, cols), 1):
        if j > s[-1]:
            pred_k[m] = occ[s[-1]]
            s.append(j)
        else:
            k = bisect_left(s, j)
            s[k] = j
            pred_k[m] = occ[s[k - 1]]
        occ[j] = m
    trace = TraceTable(predecessor=pred_k, column=column, count=len(column) - 1)
    return trace, occ[s[-1]], len(s) - 1


def _bitpar_trace(
    symbols: tuple[Hashable, ...],
    ys: tuple[Hashable, ...],
    lists: dict[Hashable, list[int]],
    n: int,
) -> tuple[TraceTable, int, int]:
    """The LCS chain from the stored bitpar rows; returns (trace, last match, L).

    With V_i the row after x_i, the DP value D[i][j] is j minus the 1 bits
    of V_i below bit j; bit j-1 is 1 exactly where D[i][j-1] = D[i][j].
    The walk starts at (m, n) with k = L and keeps D[i][j] = k by three
    rules:

    * diagonal: x_i = y_j gives D[i][j] = D[i-1][j-1] + 1, so column j is
      the k-th LCS column and i, j and k all drop by one.  A token
      compare, no row read.
    * left: otherwise, bit j-1 of V_i set gives D[i][j-1] = k, and so do
      the columns down to row i's highest step below j, the bit length of
      ``~V_i`` below bit j-1.  Row i has k steps below j, so that column
      is at least 1.
    * up: otherwise D[i][j-1] = k - 1, and since x_i != y_j,
      D[i][j] = max(D[i-1][j], D[i][j-1]) gives D[i-1][j] = k.  No row
      read.

    So the walk reads only V_i, one bit per step and one bit length per
    left jump, and does no popcount.
    """
    masks = _symbol_masks(symbols, lists)
    full = (1 << n) - 1
    v = full
    rows = [v]
    append = rows.append
    for sym in symbols:
        mask = masks.get(sym)
        if mask is not None:
            u = v & mask
            v = ((v + u) | (v - u)) & full
        append(v)
    length = n - v.bit_count()
    cols = [0] * (length + 1)
    k = length
    i = len(symbols)
    j = n
    while k:
        if symbols[i - 1] == ys[j - 1]:
            cols[k] = j
            k -= 1
            i -= 1
            j -= 1
        elif rows[i] >> (j - 1) & 1:
            j = (~rows[i] & ((1 << (j - 1)) - 1)).bit_length()
        else:
            i -= 1
    trace = TraceTable(predecessor=[0, *range(length)], column=cols, count=length)
    return trace, length, length


def lcs_reconstruct(
    x: Sequence,
    y: Sequence,
    memory_cap: int = DEFAULT_TRACE_CAP,
    backend: str = "auto",
) -> LcsResult:
    """LCS length plus one actual subsequence, from the ``bisect`` or ``bitpar`` trace.

    The index, R and the kernel come from x and y by ``lcs_length``'s planner.
    Raises ``ValueError`` for a negative ``memory_cap`` or a backend other than
    ``auto``, ``bisect`` and ``bitpar``, before any index is built, and
    ``ReconstructionCapError`` before any kernel work when R exceeds the cap, or when
    ``bitpar`` by name would keep over ``BITPAR_WORDS_PER_MATCH * memory_cap`` row words
    (min(m, R) * ceil(n/64): rows without a match share one; ``auto`` never does).
    """
    if memory_cap < 0:
        raise ValueError(f"memory_cap must be non-negative, got {memory_cap}")
    if backend != "auto" and backend not in KERNEL_NAMES:
        raise ValueError(f"unknown backend {backend!r}; expected auto or one of {KERNEL_NAMES}")
    backend, stats, cols, lists = _plan(x, y, backend)
    if stats.r > memory_cap:
        raise ReconstructionCapError(stats.r, memory_cap)
    words = min(stats.m, stats.r) * ((stats.n + 63) // 64)
    if backend == "bitpar" and words > BITPAR_WORDS_PER_MATCH * memory_cap:
        raise ReconstructionCapError(stats.r, memory_cap, words)
    if cols is not None:
        trace, last, length = _distinct_trace(cols, stats.n)
    elif backend == "bisect":
        trace, last, length = _bisect_trace(x.symbols, lists, stats.n, stats.r)
    else:
        trace, last, length = _bitpar_trace(x.symbols, y.symbols, lists, stats.n)
    subseq = extract_lcs(trace, last, y)
    if len(subseq) != length:
        raise RuntimeError(f"extracted {len(subseq)} symbols for L = {length}")
    return LcsResult(
        length=length,
        subsequence=subseq,
        stats=stats,
        counters=_kernel_counters(stats.r, length),
        backend=backend,
        trace=trace,
    )


def extract_lcs(trace: TraceTable, k: int, y: Sequence) -> tuple[Hashable, ...]:
    """Read the subsequence off a match chain, predecessors first."""
    column = trace.column
    predecessor = trace.predecessor
    ys = y.symbols
    out = []
    append = out.append
    while k > 0:
        append(ys[column[k] - 1])
        k = predecessor[k]
    out.reverse()
    return tuple(out)


def dp_oracle(x: Sequence, y: Sequence) -> np.ndarray:
    """Dense (m+1) x (n+1) Wagner-Fischer length table.

    Tokens are mapped to dense ints first, so any hashable tokens work.
    """
    m, n = len(x.symbols), len(y.symbols)
    check_dp_cap(m, n)
    # imported here so that only the oracle pays numpy's import time
    import numpy as np

    ids = {t: k for k, t in enumerate(dict.fromkeys(x.symbols + y.symbols))}
    ys = np.fromiter(map(ids.__getitem__, y.symbols), dtype=np.int64, count=n)
    table = np.zeros((m + 1, n + 1), dtype=np.int32)
    for i in range(1, m + 1):
        prev = table[i - 1]
        cand = np.maximum(prev[1:], prev[:-1] + (ys == ids[x.symbols[i - 1]]))
        np.maximum.accumulate(cand, out=cand)
        table[i, 1:] = cand
    return table


def is_subsequence(candidate: tuple[Hashable, ...], seq: Sequence) -> bool:
    # `in` advances the shared iterator past the first match, in C
    it = iter(seq.symbols)
    return all(c in it for c in candidate)


def validate_common_subsequence(
    candidate: tuple[Hashable, ...], x: Sequence, y: Sequence, expected_length: int
) -> bool:
    """Structural check: common subsequence of both inputs, right length."""
    return (
        len(candidate) == expected_length
        and is_subsequence(candidate, x)
        and is_subsequence(candidate, y)
    )
