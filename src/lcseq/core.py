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

A named backend (``veb``, ``tree``, ``array``) runs the counted
``ThresholdSet`` from ``make_threshold_set`` instead; those are the
paper's structures and the references the tests audit.

Reconstruction runs one of two trace builders, picked by the same cost
function with its own constants.  ``_bisect_trace`` runs the bisect
kernel's slot rule and records, per match, its predecessor match and its
column (O(R) space).  ``_bitpar_trace`` keeps every row's V (rows with
no match share the previous one) and walks back from (m, n) with one
masked popcount per row, giving a chain-only trace of the L matched
columns; where it is chosen its rows hold fewer than
``BITPAR_WORDS_PER_MATCH * R`` 64-bit words, a bound known before the
work starts.  Either trace is read back by ``extract_lcs`` in O(L).  A
dense Wagner-Fischer table serves as the independent oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .matching import MatchStats, PositionLists, Sequence, build_position_lists, count_matches
from .threshold import BACKEND_NAMES, ArrayBackend, OpCounters, RowCost, make_threshold_set

if TYPE_CHECKING:
    import numpy as np

__all__ = [
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
    "BITPAR_WORDS_PER_MATCH",
    "BENCH_BACKENDS",
    "STRUCTURES",
]

DEFAULT_TRACE_CAP = 1 << 26  # max matches R that reconstruction takes on
DEFAULT_DP_CAP = 1 << 26  # max cells in the dense oracle table
KERNEL_NAMES = ("bisect", "bitpar")  # the names the two kernels report

# The `lcseq bench` choices, kept here rather than in `lcseq.bench` so that
# the CLI parser lists them without importing the benchmark harness:
# the length methods a bench case runs by name, and its input shapes.
BENCH_BACKENDS = (*BACKEND_NAMES, "auto", "dp_oracle")
STRUCTURES = ("uniform_random", "repeated_block", "near_identical")


class _KernelCosts(NamedTuple):
    """Calibrated costs, in units of one 64-bit word of bitpar row work.

    ``row`` is bitpar's fixed cost per row of x; ``match`` is bisect's
    cost per match.
    """

    row: int
    match: int


# 2-core x86_64, Python 3.11: bitpar length costs about 0.4 us + 0.012 us
# per word per row and bisect about 0.25 us per match; reconstruction
# stores and walks back the rows (0.8 us + 0.03 us per word per row)
# against about 0.4 us per recorded match.
_LENGTH_COSTS = _KernelCosts(row=33, match=21)
_RECON_COSTS = _KernelCosts(row=27, match=13)

# Where _choose_kernel picks bitpar, m * ceil(n/64) < costs.match * R.
BITPAR_WORDS_PER_MATCH = _RECON_COSTS.match


def _choose_kernel(r: int, m: int, n: int, costs: _KernelCosts) -> str:
    """``bitpar`` when m rows of (row + ceil(n/64)) words cost less than R matches.

    On R <= m (one match per row or fewer, as in line diffs) it always
    picks ``bisect``, because ``costs.row`` exceeds ``costs.match``.
    """
    if m * (costs.row + (n + 63) // 64) < costs.match * r:
        return "bitpar"
    return "bisect"


class ReconstructionCapError(MemoryError):
    """R exceeds the reconstruction cap; caller may fall back to length-only."""

    def __init__(self, r: int, cap: int):
        super().__init__(f"reconstruction needs R = {r} matches, cap is {cap}")
        self.r = r
        self.cap = cap


class DpCapError(MemoryError):
    def __init__(self, cells: int, cap: int):
        super().__init__(f"dense table needs {cells} cells, cap is {cap}")
        self.cells = cells
        self.cap = cap


@dataclass
class TraceTable:
    """Per-match reconstruction records (1-indexed by match number).

    predecessor[k] is the match number of the chain predecessor (0 =
    none) and column[k] the matched column.  The bisect builder records
    all R matches; the bitpar builder records only the LCS chain, so
    there count = L, predecessor[k] = k - 1 and column[k] is the k-th
    LCS column.
    """

    predecessor: list[int]
    column: list[int]
    count: int = 0


@dataclass
class LcsResult:
    length: int
    subsequence: tuple[int, ...] | None
    stats: MatchStats
    counters: OpCounters
    backend: str
    row_costs: list[RowCost] | None = None
    trace: TraceTable | None = None


def _check_op_budget(counters: OpCounters, r: int) -> None:
    """At most four structure operations per match (succ, pred, insert, delete)."""
    ops = counters.structure_total()
    if ops > 4 * r:
        raise RuntimeError(f"{ops} structure operations for R = {r} exceeds 4R")


def _threshold_rows(symbols: tuple[int, ...], lists: dict[int, list[int]]) -> list[int]:
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


def _symbol_masks(symbols: tuple[int, ...], lists: dict[int, list[int]]) -> dict[int, int]:
    """Bit j-1 set for each column j of the symbol, for the symbols x and y share."""
    masks = {}
    for sym in set(symbols).intersection(lists):
        mask = 0
        for j in lists[sym]:
            mask |= 1 << (j - 1)
        masks[sym] = mask
    return masks


def _bitpar_rows(symbols: tuple[int, ...], lists: dict[int, list[int]], n: int) -> int:
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


def lcs_length(
    x: Sequence,
    y: Sequence,
    backend: str = "auto",
    position_lists: PositionLists | None = None,
) -> LcsResult:
    """LCS length of x and y: a kernel for ``auto``/``bisect``/``bitpar``, else the named set."""
    pl = position_lists if position_lists is not None else build_position_lists(y)
    stats = count_matches(x, pl)
    if backend == "auto":
        backend = _choose_kernel(stats.r, stats.m, stats.n, _LENGTH_COSTS)
    if backend in KERNEL_NAMES:
        if backend == "bisect":
            length = len(_threshold_rows(x.symbols, pl.lists)) - 1
        else:
            length = _bitpar_rows(x.symbols, pl.lists, pl.length)
        stats.l = length
        return LcsResult(length, None, stats, _kernel_counters(stats.r, length), backend)
    ts = make_threshold_set(max(pl.length, 1), backend)
    if stats.r == 0:
        stats.l = 0
        return LcsResult(0, None, stats, OpCounters(), ts.name)
    lists = pl.lists
    for sym in x.symbols:
        positions = lists.get(sym)
        if not positions:
            continue
        ts.begin_row()
        for j in positions:
            ts.update(j)
    length = ts.size()
    _check_op_budget(ts.counters, stats.r)
    stats.l = length
    return LcsResult(
        length=length,
        subsequence=None,
        stats=stats,
        counters=ts.counters,
        backend=ts.name,
        row_costs=ts.row_costs() if isinstance(ts, ArrayBackend) else None,
    )


def _bisect_trace(
    symbols: tuple[int, ...], lists: dict[int, list[int]], n: int, r: int
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


def _bitpar_trace(
    symbols: tuple[int, ...], lists: dict[int, list[int]], n: int
) -> tuple[TraceTable, int, int]:
    """The LCS chain from the stored bitpar rows; returns (trace, last match, L).

    With V_i the row after x_i, the DP value at (i, j) is j minus the 1
    bits of V_i below bit j.  Walking back from (m, n) at value k: when
    V_{i-1} gives k too, x_i is not needed; otherwise the highest 0 bit
    of V_i below bit j is bit c-1 of a column c <= j where x_i = y_c and
    (i-1, c-1) has value k-1.
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
    j = n
    low = full  # the bits below bit j
    i = len(symbols)
    while k:
        cur = rows[i]
        i -= 1
        prev = rows[i]
        if prev is cur or j - (prev & low).bit_count() == k:
            continue
        j = (low & ~cur).bit_length()
        cols[k] = j
        k -= 1
        j -= 1
        low = (1 << j) - 1
    trace = TraceTable(predecessor=[0, *range(length)], column=cols, count=length)
    return trace, length, length


def lcs_reconstruct(
    x: Sequence,
    y: Sequence,
    position_lists: PositionLists | None = None,
    memory_cap: int = DEFAULT_TRACE_CAP,
    backend: str = "auto",
) -> LcsResult:
    """LCS length plus one actual subsequence, from the ``bisect`` or ``bitpar`` trace.

    Raises ``ReconstructionCapError`` when R exceeds ``memory_cap``,
    before any work.
    """
    pl = position_lists if position_lists is not None else build_position_lists(y)
    stats = count_matches(x, pl)
    if stats.r > memory_cap:
        raise ReconstructionCapError(stats.r, memory_cap)
    if backend == "auto":
        backend = _choose_kernel(stats.r, stats.m, stats.n, _RECON_COSTS)
    if backend == "bisect":
        trace, last, length = _bisect_trace(x.symbols, pl.lists, pl.length, stats.r)
    elif backend == "bitpar":
        trace, last, length = _bitpar_trace(x.symbols, pl.lists, pl.length)
    else:
        raise ValueError(f"unknown backend {backend!r}; expected auto or one of {KERNEL_NAMES}")
    subseq = extract_lcs(trace, last, y)
    if len(subseq) != length:
        raise RuntimeError(f"extracted {len(subseq)} symbols for L = {length}")
    stats.l = length
    return LcsResult(
        length=length,
        subsequence=subseq,
        stats=stats,
        counters=_kernel_counters(stats.r, length),
        backend=backend,
        trace=trace,
    )


def extract_lcs(trace: TraceTable, k: int, y: Sequence) -> tuple[int, ...]:
    """Read the subsequence off a match chain, predecessors first."""
    cols: list[int] = []
    while k > 0:
        cols.append(trace.column[k])
        k = trace.predecessor[k]
    cols.reverse()
    return tuple(y.symbols[j - 1] for j in cols)


def dp_oracle(
    x: Sequence, y: Sequence, cap: int = DEFAULT_DP_CAP
) -> np.ndarray:
    """Dense (m+1) x (n+1) Wagner-Fischer length table."""
    m, n = len(x.symbols), len(y.symbols)
    if (m + 1) * (n + 1) > cap:
        raise DpCapError((m + 1) * (n + 1), cap)
    # imported here so that only the oracle pays numpy's import time
    import numpy as np

    ys = np.asarray(y.symbols, dtype=np.int64) if n else np.empty(0, dtype=np.int64)
    table = np.zeros((m + 1, n + 1), dtype=np.int32)
    for i in range(1, m + 1):
        prev = table[i - 1]
        cand = np.maximum(prev[1:], prev[:-1] + (ys == x.symbols[i - 1]))
        np.maximum.accumulate(cand, out=cand)
        table[i, 1:] = cand
    return table


def is_subsequence(candidate: tuple[int, ...], seq: Sequence) -> bool:
    # `in` advances the shared iterator past the first match, in C
    it = iter(seq.symbols)
    return all(c in it for c in candidate)


def validate_common_subsequence(
    candidate: tuple[int, ...], x: Sequence, y: Sequence, expected_length: int
) -> bool:
    """Structural check: common subsequence of both inputs, right length."""
    return (
        len(candidate) == expected_length
        and is_subsequence(candidate, x)
        and is_subsequence(candidate, y)
    )
