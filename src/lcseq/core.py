"""LCS drivers: two kernels, the named threshold sets, reconstruction, the DP oracle.

The length driver walks the first sequence row by row.  The default
(``auto``) runs one of two stdlib kernels, picked by ``_plan`` with
``_choose_kernel`` from R (which ``_count`` counts before any work), m
and n:

* ``bisect`` (``_threshold_rows``), the Hunt-Szymanski kernel.  It feeds
  each row's match columns, in strictly decreasing order, to a threshold
  set kept as a plain sorted list; each match costs at most one bounded
  ``bisect_left``, so the run is O(R log L + n).  It wins where rows have
  few matches (diff-like inputs, R close to m).
* ``bitpar`` (``_bitpar_rows``), the bit-parallel row update of Allison
  and Dix (1986) in Hyyro's (2004) form.  Bit j-1 of V is 0 where the DP
  row steps up at column j; two ands, an add and an or per row of x
  update it, so the run is O(m * ceil(n/64)) word operations whatever
  R is.  It wins where rows have many matches (small alphabets).

When every token of a tuple y is distinct, each row has at most one
match, and ``auto`` needs no position lists: ``column_map`` gives the
matched rows' columns from one dict built in C, R is their count, and the
sweep is the single-match slot rule (Hunt and Szymanski 1977 reduce to a
longest increasing subsequence of the columns), reported as ``bisect``,
the rule's pick since R <= m.  ``bisect`` by name runs the position-list
kernel.  ``column_map`` rules the path out in O(1) when y repeats early.
A bytes pair never takes it: its masks count R first, and a y of
distinct bytes then gets ``bisect`` over position lists, whose trace
holds the same records.

A named backend (``BACKEND_NAMES``: ``veb``, ``tree``, ``array``) runs
the ``ThresholdSet`` that ``lcseq.threshold`` builds, imported only
then; those are the paper's structures and the references the tests
audit.  No backend counts its operations: every result's ``OpCounters``
come from R and L by ``_kernel_counters``.
``LENGTH_BACKENDS`` lists every name ``lcs_length`` takes.  Each entry point
derives its index from (x, y) and checks its arguments before building it.

Two steps run before a kernel, and each hands over one index with the
name of its form.  ``_count`` counts R with it: ``"masks"``, when x and
y are both ``bytes`` (bytes mode), y's masks of the bytes x holds, from
its eight bit planes in C once the bytes x lacks are folded into one
(``_byte_masks``), with R from their popcounts; ``"cols"``, the column
map of a tuple y; or ``"lists"``, y's position lists and
``count_matches``.
``_plan`` alone then picks the kernel, checks the trace's cap once, and
converts the index at most once, where the chosen kernel reads the other
form, so ``lcs_length`` and ``lcs_reconstruct`` see one index and one
kernel; ``bitpar``'s pairs each mask with its complement.  The CLI's
``stats`` and ``bench`` run the count step alone, which builds neither.
The kernels only sweep: the bisect kernel, its trace and the named sets
read ``_match_rows``, each matching row's columns from the position
lists, and none of them looks a token up in y's index.

Reconstruction runs that kernel's trace builder:
``_bisect_trace`` and ``_distinct_trace`` record each match's
predecessor and column (O(R) space), reading the predecessor from one
occupant per slot of S; ``_bitpar_trace`` keeps the rows that
``_bitpar_rows`` hands back, so the row update exists once, and walks
back the L-column chain in at most m + n steps.  Where ``auto`` picks ``bitpar`` its rows
hold fewer than ``BITPAR_WORDS_PER_MATCH * R`` 64-bit words, and by name
at most that many times the cap, both known before the work starts.
``extract_lcs`` reads either trace back in O(L).  A dense Wagner-Fischer
table serves as the independent oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from operator import contains

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
    from collections.abc import Hashable, Iterable, Iterator

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
BACKEND_NAMES = ("veb", "tree", "array")  # the named sets, in lcseq.threshold
LENGTH_BACKENDS = ("auto", *KERNEL_NAMES, *BACKEND_NAMES)  # the names lcs_length takes

# The `lcseq bench` choices, kept here rather than in `lcseq.bench` so that
# the CLI parser lists them without importing the benchmark harness:
# the length methods a bench case runs by name, and its input shapes.
BENCH_BACKENDS = (*LENGTH_BACKENDS, "dp_oracle")
STRUCTURES = ("uniform_random", "repeated_block", "near_identical")


# The kernel rule, in units of one 64-bit word of bitpar row work: bitpar
# costs _BITPAR_ROW_WORDS plus ceil(n/64) words per row of x, and bisect
# BITPAR_WORDS_PER_MATCH words per match.  Both were calibrated before the
# row update dropped its per-row ``& full``.  Since then (2-core x86_64,
# Python 3.11.7) bitpar length fits 134-141 ns per row + 2.5-2.6 ns per
# word (sigma = 4 bytes, m = 2000, n = 64..65536, best of 7), and bisect
# costs 205-352 ns per match (m = n = 8000 random tuples, sigma = 64..1024):
# about 54 words per row and 80-140 per match, against the 33 and 21 here,
# which stand until the rule is recalibrated.  Reconstruction takes the
# same rule: with R/m from 2.4 to 10.7 and n up to 8192, the bitpar
# builder reconstructs faster than the bisect trace where the rule picks
# it.  Where _choose_kernel picks bitpar, m * ceil(n/64) <
# BITPAR_WORDS_PER_MATCH * R.
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
    """Counts of each set operation, and of ``update`` calls; ``_kernel_counters`` makes them."""

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


def _match_rows(x: Sequence, lists: dict[Hashable, list[int]]) -> Iterator[list[int]]:
    """The strictly decreasing match columns of each row of x that y matches, in row order."""
    return filter(None, map(lists.get, x.symbols))


def _threshold_rows(rows: Iterable[list[int]]) -> list[int]:
    """Final threshold set S of the Hunt-Szymanski sweep over ``_match_rows``, as a sorted list.

    S[0] is a 0 sentinel and S[1..L] the set.  A row's columns arrive in
    decreasing order, so the slot k that took the previous column bounds
    the next one's: it goes to slot k when S[k-1] < j, and otherwise to the
    slot that ``bisect_left`` finds below k-1.  Only a row's first column
    can append.  After every row S[1:] equals ``ArrayBackend``'s contents.
    """
    s = [0]
    for positions in rows:
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


# _PLANES[b] maps each byte to b"1" where its bit b is set and to b"0" elsewhere:
# runs of 2^b zeros and 2^b ones
_PLANES = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8)]
_BYTES = bytes(range(256))


def _byte_masks(xs: bytes, ys: bytes) -> dict[int, int]:
    """``_symbol_masks`` from y's bit planes: one mask for each byte that x and y share.

    First one ``translate`` folds every byte of y that x lacks into one of
    them, the first byte value x lacks, whose mask is dropped at the end.
    Plane b has bit j-1 set where the folded y_j has bit b set: one
    ``translate`` and one ``int(..., 2)``, both in C.  Splitting the mask of
    all n columns by plane 7, each part by plane 6, and so on down to plane
    0, dropping empty parts, leaves one mask per byte value of the folded y,
    keyed by the bits of the planes it took: a part's bits in the plane, and
    the rest of its bits (``mask ^ one``).  With k shared bytes, at most
    k + 1 parts of up to n bits outlive a plane, and twice that and the
    plane are held while one splits.
    """
    if not ys:
        return {}
    lost = _BYTES.translate(None, xs)  # the byte values x lacks
    fold = bytes.maketrans(lost, lost[:1] * len(lost))
    rev = ys[::-1].translate(fold)  # int() reads the last column first
    masks = {0: (1 << len(ys)) - 1}
    for b in range(7, -1, -1):
        plane = int(rev.translate(_PLANES[b]), 2)
        bit = 1 << b
        split = {}
        for key, mask in masks.items():
            if one := mask & plane:
                split[key | bit] = one
            if zero := mask ^ one:
                split[key] = zero
        masks = split
    if lost:
        masks.pop(lost[0], None)
    return masks


def _bitpar_rows(
    symbols: tuple[Hashable, ...] | bytes,
    masks: dict[Hashable, tuple[int, int]],
    n: int,
    rows: list[int] | None = None,
) -> int:
    """LCS length by the bit-parallel row update; L is the count of 0 bits of V below bit n.

    V' = (V + (V & M)) | (V & ~M), reading each symbol's (M, ~M) from
    ``_plan``.  Nothing clears V's bits from bit n up: they count the
    carries out of bit n-1, at most one per row, and no mask reaches them.
    Given a list, ``rows`` gets V after every row of x, so a caller that
    starts it with V_0 holds V_0..V_m (rows without a match share an int).
    """
    full = (1 << n) - 1
    v = full
    for sym in symbols:
        pair = masks.get(sym)
        if pair is not None:
            mask, rest = pair
            v = (v + (v & mask)) | (v & rest)
        if rows is not None:
            rows.append(v)
    return n - (v & full).bit_count()


def _kernel_counters(r: int, length: int) -> OpCounters:
    """Every backend's operation counts, from R and L alone.

    The paper's sweep is R calls of Update(S, x), whatever structure holds
    S: each is one successor query and one insert, and all but the L
    appends also delete the replaced member.  No query is a Pred.
    """
    return OpCounters(succ=r, insert=r, delete=r - length, update=r)


def _distinct_rows(cols: list[int]) -> int:
    """LCS length from a column map: the single-match slot rule over the matched rows.

    Each matched row has one column j: it is appended when j > S[-1], and
    otherwise replaces S[bisect_left(S, j)].  S[0] is a 0 sentinel.
    """
    s = [0]
    for j in cols:
        if j > s[-1]:
            s.append(j)
        else:
            s[bisect_left(s, j)] = j
    return len(s) - 1


def _check_cap(backend: str, stats: MatchStats, memory_cap: int) -> None:
    """Raise ``ReconstructionCapError`` when the trace of ``backend`` would exceed the cap."""
    if stats.r > memory_cap:
        raise ReconstructionCapError(stats.r, memory_cap)
    words = min(stats.m, stats.r) * ((stats.n + 63) // 64)
    if backend == "bitpar" and words > BITPAR_WORDS_PER_MATCH * memory_cap:
        raise ReconstructionCapError(stats.r, memory_cap, words)


def _count(x: Sequence, y: Sequence, backend: str) -> tuple[
    MatchStats, str, list[int] | dict[Hashable, int] | dict[Hashable, list[int]]
]:
    """R and the index that counted it; returns (stats, form, index).

    The one place in the package that counts R, with one index of y whose
    form names it.  When x and y are both ``bytes``, ``auto`` and
    ``bitpar`` get ``"masks"`` first, y's ``_byte_masks``, one per byte x
    and y share, with R from their popcounts; so the column map serves
    tuple inputs only.  Otherwise, under ``auto``, a y of distinct tokens
    gives form ``"cols"``, its ``column_map`` (R = len(cols)).  Everything
    else gets ``"lists"``, y's position lists, with R from
    ``count_matches``.  The masks are plain ints: ``_plan`` adds bitpar's
    complements.  The count picks no kernel.
    """
    xs = x.symbols
    ys = y.symbols
    if backend in ("auto", "bitpar") and type(xs) is bytes and type(ys) is bytes:
        masks = _byte_masks(xs, ys)
        counts = [0] * 256
        for sym, mask in masks.items():
            counts[sym] = mask.bit_count()
        stats = MatchStats(r=sum(map(counts.__getitem__, xs)), n=len(ys), m=len(xs))
        return stats, "masks", masks
    if backend == "auto":
        cols = column_map(x, y)
        if cols is not None:
            return MatchStats(r=len(cols), n=len(ys), m=len(xs)), "cols", cols
    pl = build_position_lists(y)
    return count_matches(x, pl), "lists", pl.lists


def _plan(x: Sequence, y: Sequence, backend: str, memory_cap: int | None = None) -> tuple[
    str, MatchStats, str, list[int] | dict[Hashable, tuple[int, int]] | dict[Hashable, list[int]]
]:
    """Everything before a kernel runs; returns (kernel, stats, form, index).

    The one place in the package that picks the kernel.  ``_count`` gives
    R; form ``"cols"`` runs ``bisect``'s single-match rule, and ``auto``
    otherwise picks by ``_choose_kernel``.  Given ``memory_cap``, the
    trace's cap is checked once R and the kernel are known, before any
    other index is built.  ``bitpar`` reads ``"masks"`` and every other
    kernel ``"lists"`` or ``"cols"``, so the index is converted at most
    once: to masks for ``bitpar`` from ``"lists"``, and to position lists
    for any other kernel from ``"masks"``.  The bisect sweeps and the named
    sets read the lists through ``_match_rows``.  ``bitpar`` then gets the
    mask M of each symbol x and y share as (M, ~M), ~M its complement
    within the n columns: one more n-bit int per mask, which makes a
    sigma = 256 row faster than ``V ^ (V & M)``.
    """
    stats, form, index = _count(x, y, backend)
    if form == "cols":
        backend = "bisect"
    elif backend == "auto":
        backend = _choose_kernel(stats.r, stats.m, stats.n)
    if memory_cap is not None:
        _check_cap(backend, stats, memory_cap)
    if backend == "bitpar":
        masks = index if form == "masks" else _symbol_masks(x.symbols, index)
        full = (1 << stats.n) - 1
        return backend, stats, "masks", {sym: (mask, full ^ mask) for sym, mask in masks.items()}
    if form == "masks":
        return backend, stats, "lists", build_position_lists(y).lists
    return backend, stats, form, index


def lcs_length(
    x: Sequence,
    y: Sequence,
    backend: str = "auto",
    position_lists: PositionLists | None = None,
) -> LcsResult:
    """LCS length of x and y: a kernel for ``auto``/``bisect``/``bitpar``, else the named set.

    A name outside ``LENGTH_BACKENDS`` raises ``ValueError`` before any index
    is built.  The index always comes from y, by ``_plan``; ``position_lists``
    is accepted and ignored, as ``tokenize`` ignores ``table``.
    """
    if backend not in LENGTH_BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {LENGTH_BACKENDS}")
    backend, stats, form, index = _plan(x, y, backend)
    row_costs = None
    if form == "cols":
        length = _distinct_rows(index)
    elif backend == "bisect":
        length = len(_threshold_rows(_match_rows(x, index))) - 1
    elif backend == "bitpar":
        length = _bitpar_rows(x.symbols, index, stats.n)
    else:
        from .threshold import make_threshold_set  # imported here: only a named set loads it

        ts = make_threshold_set(max(stats.n, 1), backend)
        for positions in _match_rows(x, index):
            ts.begin_row()
            for j in positions:
                ts.update(j)
        length, row_costs = ts.size(), ts.row_costs()
    return LcsResult(length, None, stats, _kernel_counters(stats.r, length), backend, row_costs)


def _bisect_trace(rows: Iterable[list[int]], r: int) -> tuple[TraceTable, int, int]:
    """Every match's record on the bisect kernel's slot rule; returns (trace, last match, L).

    ``rows`` are ``_match_rows``, which hold the R matches.

    ``occ[k]`` is the match now in slot k of S: appended when S grows,
    overwritten when the slot is replaced, 0 for the sentinel S[0].  A
    column sits in one slot at most, and every later match with it lands
    there, so Pred (the match holding S[k-1]) is ``occ[k-1]`` and the last
    match is ``occ[-1]``.
    """
    trace = TraceTable(predecessor=[0] * (r + 1), column=[0] * (r + 1))
    pred_k = trace.predecessor
    col_k = trace.column
    occ = [0]
    m = 0
    s = [0]
    for positions in rows:
        k = len(s)
        for j in positions:
            m += 1
            if s[k - 1] >= j:
                k = bisect_left(s, j, 1, k - 1)
                s[k] = j
                occ[k] = m
            elif k == len(s):
                s.append(j)
                occ.append(m)
            else:
                s[k] = j
                occ[k] = m
            pred_k[m] = occ[k - 1]
            col_k[m] = j
    trace.count = m
    return trace, occ[-1], len(s) - 1


def _distinct_trace(cols: list[int]) -> tuple[TraceTable, int, int]:
    """``_bisect_trace``'s records from a column map; returns (trace, last match, L).

    Match number m is the m-th row that matches, so column[m] is
    cols[m - 1]; ``occ`` is the per-slot occupant list of ``_bisect_trace``.
    """
    column = [0, *cols]
    pred_k = [0] * len(column)
    occ = [0]
    s = [0]
    for m in range(1, len(column)):
        j = column[m]
        if j > s[-1]:
            pred_k[m] = occ[-1]
            s.append(j)
            occ.append(m)
        else:
            k = bisect_left(s, j)
            s[k] = j
            occ[k] = m
            pred_k[m] = occ[k - 1]
    trace = TraceTable(predecessor=pred_k, column=column, count=len(column) - 1)
    return trace, occ[-1], len(s) - 1


def _bitpar_trace(
    symbols: tuple[Hashable, ...] | bytes,
    ys: tuple[Hashable, ...] | bytes,
    masks: dict[Hashable, tuple[int, int]],
    n: int,
) -> tuple[TraceTable, int, int]:
    """The LCS chain from the stored bitpar rows; returns (trace, last match, L).

    ``_bitpar_rows`` hands back the rows V_1..V_m after V_0, all n bits
    set, and L.  With V_i the row after x_i, the DP value D[i][j] is j minus
    the 1 bits of V_i below bit j; bit j-1 is 1 exactly where
    D[i][j-1] = D[i][j].  The walk reads no bit from n up,
    where V_i counts carries.
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
    rows = [(1 << n) - 1]
    length = _bitpar_rows(symbols, masks, n, rows)
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
    ``ReconstructionCapError`` before any row is built when R exceeds the cap, or when
    ``bitpar`` by name would keep over ``BITPAR_WORDS_PER_MATCH * memory_cap`` row words
    (min(m, R) * ceil(n/64): rows without a match share one; ``auto`` never does).
    The planner checks the cap once it knows R, so the masks of a bytes pair
    (one int of n bits per byte x and y share) come before the check, and no
    complement or row does.
    """
    if memory_cap < 0:
        raise ValueError(f"memory_cap must be non-negative, got {memory_cap}")
    if backend != "auto" and backend not in KERNEL_NAMES:
        raise ValueError(f"unknown backend {backend!r}; expected auto or one of {KERNEL_NAMES}")
    backend, stats, form, index = _plan(x, y, backend, memory_cap)
    if form == "cols":
        trace, last, length = _distinct_trace(index)
    elif backend == "bisect":
        trace, last, length = _bisect_trace(_match_rows(x, index), stats.r)
    else:
        trace, last, length = _bitpar_trace(x.symbols, y.symbols, index, stats.n)
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

    Tokens are mapped to dense ints first, so any hashable tokens work,
    and one side may be ``bytes`` and the other a tuple.
    """
    m, n = len(x.symbols), len(y.symbols)
    check_dp_cap(m, n)
    # imported here so that only the oracle pays numpy's import time
    import numpy as np

    ids = {t: k for k, t in enumerate(dict.fromkeys((*x.symbols, *y.symbols)))}
    ys = np.fromiter(map(ids.__getitem__, y.symbols), dtype=np.int64, count=n)
    table = np.zeros((m + 1, n + 1), dtype=np.int32)
    for i in range(1, m + 1):
        prev = table[i - 1]
        cand = np.maximum(prev[1:], prev[:-1] + (ys == ids[x.symbols[i - 1]]))
        np.maximum.accumulate(cand, out=cand)
        table[i, 1:] = cand
    return table


def is_subsequence(candidate: tuple[Hashable, ...], seq: Sequence) -> bool:
    # each `c in it` advances the shared iterator past the first match; the whole scan runs in C
    return all(map(contains, repeat(iter(seq.symbols)), candidate))


def validate_common_subsequence(
    candidate: tuple[Hashable, ...], x: Sequence, y: Sequence, expected_length: int
) -> bool:
    """Structural check: common subsequence of both inputs, right length."""
    return (
        len(candidate) == expected_length
        and is_subsequence(candidate, x)
        and is_subsequence(candidate, y)
    )
