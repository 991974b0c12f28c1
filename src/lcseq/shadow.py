"""Dense debug-mode state run in lock-step with the threshold set.

The tracker maintains, literally by definition, the per-column running
maxima H and their prefix maxima Q while the compact threshold set
processes the same matches.  After every row it cross-checks the
representations; any disagreement is reported with the offending row,
column, and both values.  Desk-scale only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _plan
from .matching import Sequence
from .threshold import ThresholdSet, make_threshold_set

__all__ = [
    "InvariantViolation",
    "ShadowState",
    "ShadowTracker",
    "shadow_run",
    "DEFAULT_SHADOW_LIMIT",
]

DEFAULT_SHADOW_LIMIT = 256


class InvariantViolation(Exception):
    def __init__(self, what: str, row: int, column: int, expected, actual):
        super().__init__(
            f"{what} at row {row}, column {column}: expected {expected}, got {actual}"
        )
        self.what = what
        self.row = row
        self.column = column
        self.expected = expected
        self.actual = actual


@dataclass
class ShadowState:
    """Snapshot after one row: Q(1..n) in ``q``, the set's members in ``contents``.

    ``t_values`` holds only this row's matches, (row, j) -> T(row, j), so
    a run's snapshots hold O(R + m * n) values, not O(m * R).
    """

    row: int
    q: tuple[int, ...]
    contents: tuple[int, ...]
    t_values: dict[tuple[int, int], int]


class ShadowTracker:
    """Dense H/Q plus the array threshold set over 1..n; starts empty, moved only by ``apply_match``."""

    def __init__(self, n: int):
        self.n = n
        self.h = [0] * (n + 1)
        self.q = [0] * (n + 1)
        self.ts: ThresholdSet = make_threshold_set(max(n, 1), "array")

    def apply_match(self, i: int, j: int) -> int:
        """Process match (i, j); returns its chain-length value T(i, j)."""
        if not 1 <= j <= self.n:
            raise ValueError(f"match ({i}, {j}): column {j} outside 1..{self.n}")
        t = 1 + self.q[j - 1]
        if t > self.h[j]:
            self.h[j] = t
            running = self.q[j - 1]
            for col in range(j, self.n + 1):
                running = max(running, self.h[col])
                if self.q[col] == running:
                    break
                self.q[col] = running
        self.ts.update(j)
        return t

    def q_from_contents(self) -> list[int]:
        """Q reconstructed from the compact set (piecewise-constant form)."""
        s = self.ts.contents()
        q = [0] * (self.n + 1)
        alpha = len(s)
        for k in range(alpha):
            upper = s[k + 1] if k + 1 < alpha else self.n + 1
            for j in range(s[k], upper):
                q[j] = k + 1
        return q

    def check_row(self, row: int, prev_h: list[int] | None) -> None:
        n = self.n
        # (a) Q is the prefix maximum of H
        running = 0
        for j in range(1, n + 1):
            running = max(running, self.h[j])
            if self.q[j] != running:
                raise InvariantViolation("Q != prefix-max(H)", row, j, running, self.q[j])
        # (e) Q nondecreasing with unit steps
        for j in range(1, n):
            step = self.q[j + 1] - self.q[j]
            if step not in (0, 1):
                raise InvariantViolation(
                    "Q step outside {0,1}", row, j + 1, "step in {0,1}", step
                )
        # (b) Q reconstructed from the compact set matches dense Q
        q_s = self.q_from_contents()
        for j in range(1, n + 1):
            if q_s[j] != self.q[j]:
                raise InvariantViolation(
                    "set-derived Q != dense Q", row, j, self.q[j], q_s[j]
                )
        # (d) H never decreases row over row
        if prev_h is not None:
            for j in range(1, n + 1):
                if self.h[j] < prev_h[j]:
                    raise InvariantViolation(
                        "H decreased across rows", row, j, prev_h[j], self.h[j]
                    )

    def snapshot(self, row: int, t_values: dict[tuple[int, int], int]) -> ShadowState:
        """The state after ``row``, whose matches gave ``t_values``."""
        return ShadowState(
            row=row,
            q=tuple(self.q[1:]),
            contents=tuple(self.ts.contents()),
            t_values=t_values,
        )


def shadow_run(x: Sequence, y: Sequence) -> list[ShadowState]:
    """Sweep the threshold set over the planner's position lists of y; dense checks after each row."""
    limit = DEFAULT_SHADOW_LIMIT
    if len(x) > limit or len(y) > limit:
        raise ValueError(
            f"shadow mode is capped at {limit}x{limit}; got {len(x)}x{len(y)}"
        )
    lists = _plan(x, y, "array")[3]
    tracker = ShadowTracker(len(y))
    snapshots: list[ShadowState] = []
    prev_h: list[int] | None = None
    for i, sym in enumerate(x.symbols, start=1):
        tracker.ts.begin_row()
        row_t = {(i, j): tracker.apply_match(i, j) for j in lists.get(sym, ())}
        tracker.check_row(i, prev_h)
        prev_h = list(tracker.h)
        snapshots.append(tracker.snapshot(i, row_t))
    return snapshots
