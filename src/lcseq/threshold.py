"""Ordered positive-integer threshold set with the successor-replacement update.

The set holds strictly increasing integers in 1..capacity.  `update(x)`
replaces the successor of x-1 (the smallest member >= x) with x when one
exists, and appends x otherwise; the set therefore never shrinks and
grows by at most one per update.  ``ThresholdSet`` is the one set
contract, one class over the ordered structure its constructor takes;
``make_threshold_set`` builds each named set, and is the one place that
loads a tree module:

* ``veb``   - a ``ThresholdSet`` over a van Emde Boas tree, O(log log n)
  per operation.
* ``tree``  - a ``ThresholdSet`` over an AVL tree, O(log size) per
  operation.
* ``array`` - ``ArrayBackend``, a sorted vector whose replace step is a
  per-row downward scan: O(size) per row when updates within a row
  arrive in strictly decreasing order (the paper's O(nL) vector).

They are the named ``--backend`` choices (``BACKEND_NAMES``) and the
references the tests audit.  ``lcseq.core`` holds those names
(re-exported here) and ``OpCounters``, and imports this module only
when a named set runs.  No set keeps operation counts: each update is
one Succ, one Insert and at most one Delete, so ``lcseq.core`` derives
every backend's counts from R and L.  Queries use 0 as the "no such
element" sentinel, matching the positive-integer key space.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .core import BACKEND_NAMES  # re-exported

__all__ = [
    "RowCost",
    "ThresholdSet",
    "ArrayBackend",
    "make_threshold_set",
]


class RowCost(NamedTuple):
    """Array-backend cost record for one row, built when ``row_costs()`` is read."""

    alpha_start: int
    updates: int
    comparisons: int


class ThresholdSet:
    """The ordered set DS over 1..capacity, the paper's Update(S, x) over ``tree``.

    ``update``, ``succ``, ``pred``, ``max``, ``size`` and ``contents`` run
    over ``tree``, an empty ordered integer set that can hold 1..capacity,
    with ``successor`` and ``predecessor`` (None when absent), ``insert``,
    ``delete``, ``max``, ``len`` and ascending iteration.  Only this class
    range-checks its arguments.  A subclass changes only the replace step,
    ``_replace``, and may use the row-boundary hint ``begin_row``.
    """

    def __init__(self, capacity: int, tree):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.tree = tree

    def size(self) -> int:
        return len(self.tree)

    def max(self) -> int:
        """Largest member, or 0 when the set is empty."""
        return self.tree.max or 0

    def succ(self, x: int) -> int:
        """Smallest member > x, or 0."""
        if not 0 <= x <= self.capacity:
            raise ValueError(f"succ argument {x} outside 0..{self.capacity}")
        return self.tree.successor(x) or 0

    def pred(self, x: int) -> int:
        """Largest member < x, or 0."""
        if not 1 <= x <= self.capacity:
            raise ValueError(f"pred argument {x} outside 1..{self.capacity}")
        return self.tree.predecessor(x) or 0

    def update(self, x: int) -> int | None:
        """Apply the successor-replacement rule.

        Returns the replaced member, or None when x was appended.
        """
        if not 1 <= x <= self.capacity:
            raise ValueError(f"update argument {x} outside 1..{self.capacity}")
        return self._replace(x)

    def _replace(self, x: int) -> int | None:
        """Put x in place of the successor of x-1, or append it, by ``tree.delete``/``insert``."""
        tree = self.tree
        y = tree.successor(x - 1)
        if y is not None:
            tree.delete(y)
        tree.insert(x)
        return y

    def contents(self) -> list[int]:
        """Ascending list of members."""
        return list(self.tree)

    def begin_row(self) -> None:
        """Row boundary hint; only the array backend cares."""

    def row_costs(self) -> list[RowCost] | None:
        """Per-row cost records; only the array backend keeps them, the others give None."""


class _SortedVector:
    """Sorted ints in ``items``; a wrapper, not a list subclass, so the array scan indexes fast."""

    __slots__ = ("items",)

    def __init__(self):
        self.items: list[int] = []

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def successor(self, x: int) -> int | None:
        i = bisect_right(self.items, x)
        return self.items[i] if i < len(self.items) else None

    def predecessor(self, x: int) -> int | None:
        i = bisect_left(self.items, x)
        return self.items[i - 1] if i > 0 else None

    @property
    def max(self) -> int | None:
        return self.items[-1] if self.items else None


class ArrayBackend(ThresholdSet):
    """Threshold set on a sorted vector S, a scan cursor and per-row cost records.

    Within one row the update arguments arrive in strictly decreasing
    order, so the successor scan resumes downward below the previous
    update, which sits at S[cursor + 1]; comparisons per row are then at
    most alpha + row_updates + 1.  An out-of-order update (x not below
    S[cursor + 1], allowed for generic use) restarts the scan from the
    top, and one before any ``begin_row`` opens a row.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity, _SortedVector())
        self._cursor = -1
        self._rows: list[list[int]] = []  # [alpha_start, updates, comparisons] per row

    def begin_row(self) -> None:
        self._cursor = len(self.tree.items) - 1
        self._rows.append([len(self.tree.items), 0, 0])

    def row_costs(self) -> list[RowCost]:
        """Per-row cost records, including the still-open row."""
        return [RowCost(*row) for row in self._rows]

    def _replace(self, x: int) -> int | None:
        rows = self._rows
        if not rows:
            self.begin_row()
        s = self.tree.items
        n = len(s)
        k = self._cursor
        if k + 1 < n and s[k + 1] <= x:
            k = n - 1  # no row discipline to exploit; restart from the top
        k0 = k
        while k >= 0 and s[k] >= x:
            k -= 1
        row = rows[-1]
        row[1] += 1
        # one comparison per element stepped over, plus the one that stopped it
        row[2] += k0 - k + (k >= 0)
        self._cursor = k
        if k + 1 == n:
            s.append(x)
            return None
        replaced, s[k + 1] = s[k + 1], x
        return replaced


def make_threshold_set(capacity: int, backend: str) -> ThresholdSet:
    """Empty named set over 1..capacity; the tree modules load here, and only when asked for."""
    if backend == "array":
        return ArrayBackend(capacity)
    if backend == "veb":
        from .veb import VebTree

        # keys 0..capacity; a capacity below 1 meets ThresholdSet's check, not the tree's
        return ThresholdSet(capacity, VebTree(max(capacity, 0) + 1))
    if backend == "tree":
        from .bst import AvlTree

        return ThresholdSet(capacity, AvlTree())
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}")
