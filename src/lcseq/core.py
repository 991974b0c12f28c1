"""LCS drivers over the threshold set, reconstruction, and the DP oracle.

The length driver walks the first sequence row by row, feeding each
row's match columns (in strictly decreasing order) to a threshold set;
the set's final size is the LCS length.  By default (``auto``) it runs
the Hunt-Szymanski kernel ``_threshold_rows``: the set is a plain sorted
list, each match costs at most one bounded ``bisect_left``, and the
whole run is O(R log L + n).  A named backend (``veb``, ``tree``,
``array``) runs the counted ``ThresholdSet`` from ``make_threshold_set``
instead; those are the paper's structures and the references the tests
audit.  The reconstruction driver runs the kernel's slot rule and
additionally numbers every match and records, per match, its predecessor
match and its column, from which one LCS is read back in O(L).  A dense
Wagner-Fischer table serves as the independent oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .matching import MatchStats, PositionLists, Sequence, build_position_lists, count_matches
from .threshold import ArrayBackend, OpCounters, RowCost, make_threshold_set

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
    "dp_traceback",
    "is_subsequence",
    "validate_common_subsequence",
    "DEFAULT_TRACE_CAP",
    "DEFAULT_DP_CAP",
    "KERNEL_NAME",
]

DEFAULT_TRACE_CAP = 1 << 26  # max match records for reconstruction
DEFAULT_DP_CAP = 1 << 26  # max cells in the dense oracle table
KERNEL_NAME = "bisect"  # the backend name the default kernel reports


class ReconstructionCapError(MemoryError):
    """R exceeds the trace memory cap; caller may fall back to length-only."""

    def __init__(self, r: int, cap: int):
        super().__init__(f"reconstruction needs {r} trace entries, cap is {cap}")
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
    none); column[k] is the matched column; occupant[j] is the match
    number currently holding column j in the threshold set (index 0 is
    the zero sentinel).
    """

    predecessor: list[int]
    column: list[int]
    occupant: list[int]
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
    """LCS length of x and y: the kernel for ``auto``, else the named set."""
    pl = position_lists if position_lists is not None else build_position_lists(y)
    stats = count_matches(x, pl)
    if backend == "auto":
        length = len(_threshold_rows(x.symbols, pl.lists)) - 1
        stats.l = length
        return LcsResult(length, None, stats, _kernel_counters(stats.r, length), KERNEL_NAME)
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


def lcs_reconstruct(
    x: Sequence,
    y: Sequence,
    position_lists: PositionLists | None = None,
    memory_cap: int = DEFAULT_TRACE_CAP,
) -> LcsResult:
    """LCS length plus one actual subsequence, on the default kernel's slot rule."""
    pl = position_lists if position_lists is not None else build_position_lists(y)
    stats = count_matches(x, pl)
    if stats.r == 0:
        stats.l = 0
        return LcsResult(0, (), stats, OpCounters(), KERNEL_NAME)
    if stats.r > memory_cap:
        raise ReconstructionCapError(stats.r, memory_cap)
    trace = TraceTable(
        predecessor=[0] * (stats.r + 1),
        column=[0] * (stats.r + 1),
        occupant=[0] * (pl.length + 1),
    )
    pred_k = trace.predecessor
    col_k = trace.column
    occ = trace.occupant
    lists = pl.lists
    m = 0
    # the slot rule of _threshold_rows; Pred(j) is the new occupant's left
    # neighbour S[k-1], and the sentinel S[0] = 0 maps to "no predecessor"
    s = [0]
    for sym in x.symbols:
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
    length = len(s) - 1
    subseq = extract_lcs(trace, occ[s[-1]], y)
    if len(subseq) != length:
        raise RuntimeError(f"extracted {len(subseq)} symbols for L = {length}")
    stats.l = length
    return LcsResult(
        length=length,
        subsequence=subseq,
        stats=stats,
        counters=_kernel_counters(stats.r, length),
        backend=KERNEL_NAME,
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


def dp_traceback(table: np.ndarray, x: Sequence, y: Sequence) -> tuple[int, ...]:
    """One LCS read off the dense table."""
    i, j = len(x.symbols), len(y.symbols)
    out: list[int] = []
    while i > 0 and j > 0:
        if x.symbols[i - 1] == y.symbols[j - 1] and table[i][j] == table[i - 1][j - 1] + 1:
            out.append(x.symbols[i - 1])
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    out.reverse()
    return tuple(out)


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
