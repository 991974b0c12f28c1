"""Ordered positive-integer threshold set with the successor-replacement update.

The set holds strictly increasing integers in 1..capacity.  `update(x)`
replaces the successor of x-1 (the smallest member >= x) with x when one
exists, and appends x otherwise; the set therefore never shrinks and
grows by at most one per update.  Three interchangeable backends realize
the same contract with different cost profiles:

* ``VebBackend``  - van Emde Boas tree, O(log log n) per operation.
* ``TreeBackend`` - AVL tree, O(log size) per operation.
* ``ArrayBackend``- sorted vector with a per-row downward scan cursor,
  O(size) per row when updates within a row arrive in strictly
  decreasing order (the paper's O(nL) vector).

They count every operation and are the named ``--backend`` choices and
the references the tests audit.  ``make_threshold_set`` maps one of
``BACKEND_NAMES`` to its backend.  The default path (``auto``) runs none
of them: ``lcseq.core`` runs one of its two uncounted kernels instead, a
sorted list with bisect (Hunt-Szymanski) or a bit-parallel row vector.

Queries use 0 as the "no such element" sentinel, matching the
positive-integer key space.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, NamedTuple

from .matching import _Record

if TYPE_CHECKING:
    from .bst import AvlTree
    from .veb import VebTree

__all__ = [
    "OpCounters",
    "RowCost",
    "ThresholdSet",
    "VebBackend",
    "TreeBackend",
    "ArrayBackend",
    "make_threshold_set",
    "BACKEND_NAMES",
]

BACKEND_NAMES = ("veb", "tree", "array")


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


class RowCost(NamedTuple):
    """Array-backend cost record for one row (a NamedTuple: cheap to build per row)."""

    alpha_start: int
    updates: int
    comparisons: int


class ThresholdSet:
    """The counted ordered set DS over 1..capacity behind each named backend.

    Operations: ``update(x)`` (returns the replaced member, or None when
    x was appended), ``succ(x)`` (smallest member > x), ``pred(x)``
    (largest member < x), ``max()``, ``size()``, ``contents()`` (the
    members in ascending order) and the row-boundary hint
    ``begin_row()``.  Update, Succ and Pred are counted in ``counters``.
    This base class runs them over ``self.tree``, an ordered integer set
    with ``successor``/``predecessor`` (None when absent), ``insert``,
    ``delete``, ``max``, ``len`` and ascending iteration;
    ``ArrayBackend`` overrides them over a sorted list.
    """

    tree: VebTree | AvlTree
    name: str  # the backend name that ``make_threshold_set`` maps to this class

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.counters = OpCounters()

    def _range_error(self, op: str, x: int, low: int) -> ValueError:
        return ValueError(f"{op} argument {x} outside {low}..{self.capacity}")

    def size(self) -> int:
        return len(self.tree)

    def max(self) -> int:
        """Largest member, or 0 when the set is empty."""
        return self.tree.max or 0

    def succ(self, x: int) -> int:
        """Smallest member > x, or 0."""
        if not 0 <= x <= self.capacity:
            raise self._range_error("succ", x, 0)
        self.counters.succ += 1
        return self.tree.successor(x) or 0

    def pred(self, x: int) -> int:
        """Largest member < x, or 0."""
        if not 1 <= x <= self.capacity:
            raise self._range_error("pred", x, 1)
        self.counters.pred += 1
        return self.tree.predecessor(x) or 0

    def update(self, x: int) -> int | None:
        """Apply the successor-replacement rule.

        Returns the replaced member, or None when x was appended.
        """
        if not 1 <= x <= self.capacity:
            raise self._range_error("update", x, 1)
        counters = self.counters
        counters.update += 1
        counters.succ += 1
        y = self.tree.successor(x - 1)
        if y is not None:
            counters.delete += 1
            self.tree.delete(y)
        counters.insert += 1
        self.tree.insert(x)
        return y

    def contents(self) -> list[int]:
        """Ascending list of members."""
        return list(self.tree)

    def begin_row(self) -> None:
        """Row boundary hint; only the array backend cares."""


class VebBackend(ThresholdSet):
    """Threshold set on a van Emde Boas tree over universe capacity+1."""

    name = "veb"

    def __init__(self, capacity: int):
        from .veb import VebTree  # imported here: the default path builds no tree

        super().__init__(capacity)
        self.tree = VebTree(capacity + 1)


class TreeBackend(ThresholdSet):
    """Threshold set on an AVL tree."""

    name = "tree"

    def __init__(self, capacity: int):
        from .bst import AvlTree  # imported here: the default path builds no tree

        super().__init__(capacity)
        self.tree = AvlTree()


class ArrayBackend(ThresholdSet):
    """Threshold set on a sorted dense vector with a row-scan cursor.

    Within one row the update arguments arrive in strictly decreasing
    order, so the successor scan can resume downward from where the
    previous update stopped; total element comparisons per row are then
    at most alpha + row_updates + 1.  Out-of-order calls (allowed for
    generic use) restart the scan from the top of the vector.
    """

    name = "array"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._s: list[int] = []
        self._alpha = 0  # len(self._s); the attribute is cheaper than len() per update
        self._cursor = -1
        self._last_x: int | None = None
        self._row_costs: list[RowCost] = []
        self._row_alpha_start = 0
        self._row_updates = 0
        self._row_comparisons = 0
        self._row_open = False

    def size(self) -> int:
        return self._alpha

    def max(self) -> int:
        return self._s[-1] if self._s else 0

    def succ(self, x: int) -> int:
        if not 0 <= x <= self.capacity:
            raise self._range_error("succ", x, 0)
        self.counters.succ += 1
        i = bisect_right(self._s, x)
        return self._s[i] if i < len(self._s) else 0

    def pred(self, x: int) -> int:
        if not 1 <= x <= self.capacity:
            raise self._range_error("pred", x, 1)
        self.counters.pred += 1
        i = bisect_left(self._s, x)
        return self._s[i - 1] if i > 0 else 0

    def _row_cost(self) -> RowCost:
        return RowCost(self._row_alpha_start, self._row_updates, self._row_comparisons)

    def begin_row(self) -> None:
        if self._row_open:
            self._row_costs.append(self._row_cost())
        self._row_updates = 0
        self._row_comparisons = 0
        self._cursor = self._alpha - 1
        self._last_x = None
        self._row_alpha_start = self._alpha
        self._row_open = True

    def row_costs(self) -> list[RowCost]:
        """Per-row cost records, including the still-open row."""
        if self._row_open:
            return self._row_costs + [self._row_cost()]
        return list(self._row_costs)

    def update(self, x: int) -> int | None:
        if not 1 <= x <= self.capacity:
            raise self._range_error("update", x, 1)
        self.counters.update += 1
        self.counters.succ += 1
        if not self._row_open or (self._last_x is not None and x >= self._last_x):
            # no row discipline to exploit; restart the scan from the top
            self._cursor = self._alpha - 1
            if not self._row_open:
                self._row_alpha_start = self._alpha
                self._row_open = True
        s = self._s
        k0 = k = self._cursor
        while k >= 0 and s[k] >= x:
            k -= 1
        # one comparison per element stepped over, plus the one that stopped it
        self._row_comparisons += k0 - k + (k >= 0)
        slot = k + 1
        if slot == self._alpha:
            s.append(x)
            self._alpha += 1
            replaced = None
        else:
            replaced = s[slot]
            self.counters.delete += 1
            s[slot] = x
        self.counters.insert += 1
        self._cursor = k
        self._last_x = x
        self._row_updates += 1
        return replaced

    def contents(self) -> list[int]:
        return self._s[: self._alpha]


def make_threshold_set(capacity: int, backend: str) -> ThresholdSet:
    """Empty set over 1..capacity; classes are looked up at call time."""
    if backend == "array":
        return ArrayBackend(capacity)
    if backend == "veb":
        return VebBackend(capacity)
    if backend == "tree":
        return TreeBackend(capacity)
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}")
