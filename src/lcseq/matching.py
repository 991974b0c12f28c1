"""Sequences, tokenization, and per-symbol position lists.

The comparison core never materializes the match set: the second
sequence is preprocessed once into per-symbol lists of positions in
decreasing order, and each row of the (virtual) match matrix is
enumerated by looking up the row's symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Sequence",
    "SymbolTable",
    "PositionLists",
    "MatchStats",
    "tokenize",
    "build_position_lists",
    "count_matches",
]

MODES = ("bytes", "lines")


@dataclass(frozen=True)
class Sequence:
    """Tokenized input: dense nonnegative symbol ids."""

    symbols: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.symbols)


class SymbolTable:
    """Shared first-appearance numbering for line tokens."""

    def __init__(self):
        self._ids: dict[bytes, int] = {}
        self.lines: list[bytes] = []

    def __len__(self) -> int:
        return len(self._ids)

    def intern(self, line: bytes) -> int:
        sym = self._ids.get(line)
        if sym is None:
            sym = len(self._ids)
            self._ids[line] = sym
            self.lines.append(line)
        return sym


def tokenize(raw: bytes, mode: str, table: SymbolTable | None = None) -> Sequence:
    """Turn raw bytes into a Sequence.

    bytes mode maps each byte to its value; lines mode assigns dense ids
    to distinct lines in first-appearance order, shared across inputs
    through `table`.
    """
    if mode == "bytes":
        return Sequence(tuple(raw))
    if mode == "lines":
        if table is None:
            table = SymbolTable()
        return Sequence(tuple(table.intern(line) for line in raw.splitlines()))
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


@dataclass
class PositionLists:
    """Per-symbol 1-based positions in Y, each list strictly decreasing."""

    lists: dict[int, list[int]]
    length: int

    def positions(self, symbol: int) -> list[int]:
        return self.lists.get(symbol, [])


@dataclass
class MatchStats:
    r: int
    n: int
    m: int
    l: int | None = None


def build_position_lists(y: Sequence) -> PositionLists:
    """Single scan of Y; lists come out largest-position-first."""
    lists: dict[int, list[int]] = {}
    for pos in range(len(y.symbols), 0, -1):
        lists.setdefault(y.symbols[pos - 1], []).append(pos)
    return PositionLists(lists=lists, length=len(y.symbols))


def count_matches(x: Sequence, pl: PositionLists) -> MatchStats:
    """Number of matched pairs R, without enumerating them."""
    lists = pl.lists
    r = 0
    for sym in x.symbols:
        positions = lists.get(sym)
        if positions is not None:
            r += len(positions)
    return MatchStats(r=r, n=pl.length, m=len(x.symbols))
