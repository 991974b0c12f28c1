"""Sequences, tokenization, per-symbol position lists and the column map.

The comparison core never materializes the match set: the second
sequence is preprocessed once into per-symbol lists of positions in
decreasing order, and each row of the (virtual) match matrix is
enumerated by looking up the row's symbol.  When every token of the
second sequence is distinct, each row has at most one match, and
``column_map`` gives all of them at once from one dict built in C.

The records here and in ``core`` are ``__slots__`` classes on
``_Record``, so the default path imports no ``dataclasses``.
"""

from __future__ import annotations

from collections.abc import Hashable

__all__ = [
    "Sequence",
    "SymbolTable",
    "PositionLists",
    "MatchStats",
    "tokenize",
    "build_position_lists",
    "count_matches",
    "column_map",
]

MODES = ("bytes", "lines")

# column_map looks for a repeat among this many leading tokens of y before
# it builds the full map, so that inputs with early repeats pay O(1)
DISTINCT_PREFIX = 64


class _Record:
    """Field-wise ``==``, ``repr`` and pickling for a record whose ``__slots__`` are its fields.

    Each record writes its own ``__init__``, taking the fields in slot
    order.  Unhashable unless a subclass defines ``__hash__``.
    """

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class _FrozenRecord(_Record):
    """A hashable ``_Record`` whose ``__init__`` sets the fields by ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class Sequence(_FrozenRecord):
    """Tokenized input: a tuple of hashable tokens.

    Tokens are compared only for equality and used as dict keys; they are
    not dense ids.  bytes mode gives ints 0..255, lines mode the lines
    themselves, and the library takes any hashable tokens.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[Hashable, ...]):
        object.__setattr__(self, "symbols", symbols)

    def __len__(self) -> int:
        return len(self.symbols)


class SymbolTable:
    """An always-empty stub: ``tokenize`` takes one and ignores it (lines are their own tokens)."""

    def __len__(self) -> int:
        return 0


def tokenize(raw: bytes, mode: str, table: SymbolTable | None = None) -> Sequence:
    """Turn raw bytes into a Sequence.

    bytes mode maps each byte to its value; lines mode makes each line,
    without its line ending (``bytes.splitlines``), its own token, so
    equal lines in two inputs are equal tokens.  ``table`` is accepted
    for older callers and unused.
    """
    if mode == "bytes":
        return Sequence(tuple(raw))
    if mode == "lines":
        return Sequence(tuple(raw.splitlines()))
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


class PositionLists(_Record):
    """Per-symbol 1-based positions in Y, each list strictly decreasing; ``length`` is len(Y)."""

    __slots__ = ("lists", "length")

    def __init__(self, lists: dict[Hashable, list[int]], length: int):
        self.lists = lists
        self.length = length

    def positions(self, symbol: Hashable) -> list[int]:
        return self.lists.get(symbol, [])


class MatchStats(_FrozenRecord):
    """R matched pairs of x (length m) against y (length n); L is ``LcsResult.length``."""

    __slots__ = ("r", "n", "m")

    def __init__(self, r: int, n: int, m: int):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)


def build_position_lists(y: Sequence) -> PositionLists:
    """Single scan of Y; lists come out largest-position-first."""
    lists: dict[Hashable, list[int]] = {}
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


def column_map(x: Sequence, y: Sequence) -> list[int | None] | None:
    """Per token of x, its 1-based column in y (``None`` if absent), when y's tokens are distinct.

    Returns ``None`` when some token of y repeats.  A repeat among the
    first ``DISTINCT_PREFIX`` tokens rules the map out before it is built.
    On the map, R is ``len(x) - cols.count(None)``.
    """
    ys = y.symbols
    n = len(ys)
    if len(set(ys[:DISTINCT_PREFIX])) < min(n, DISTINCT_PREFIX):
        return None
    last = dict(zip(ys, range(1, n + 1)))
    if len(last) != n:
        return None
    return list(map(last.get, x.symbols))
