"""van Emde Boas tree over an integer universe {0, ..., u-1}.

Universe sizes are rounded up to a power of two.  Each node splits its
key space into 2**ceil(b/2) clusters of 2**floor(b/2) keys (b = bit
width), with a summary structure over the occupied clusters, giving
O(log log u) insert/delete/member/successor/predecessor and O(1)
min/max.  Member is answered by Succ: x is stored exactly when it is the
minimum or the successor of x - 1.  Only the tree a caller builds keeps
a key count; its clusters and summaries report ``len`` 0.  The truth
value reads ``min``, as every query does, so any node holding a key is true.

The minimum of a node is kept only in the node's cache, never stored
recursively, so insert and delete make at most one non-trivial
recursive call.  Clusters are allocated lazily on first insert and
kept when they empty: an empty cluster has ``min is None``, which every
query already reads as empty, and a later insert into the same cluster
reuses it.  Memory is therefore bounded by the distinct keys ever
inserted, not by the keys currently stored; for the LCS threshold set
that is at most min(R, n) keys.
"""

from __future__ import annotations

__all__ = ["VebTree"]


class VebTree:
    """Dynamic set of integers in [0, universe_bound); member is Succ, the root counts."""

    __slots__ = (
        "universe_bound",
        "_bits",
        "_lower_bits",
        "_lower_mask",
        "min",
        "max",
        "summary",
        "clusters",
        "population",
    )

    def __init__(self, universe_request: int):
        if universe_request < 1:
            raise ValueError(f"universe must be positive, got {universe_request}")
        bits = max(universe_request - 1, 1).bit_length()
        self.universe_bound = 1 << bits
        self._bits = bits
        self._lower_bits = bits >> 1
        self._lower_mask = (1 << self._lower_bits) - 1
        self.min: int | None = None
        self.max: int | None = None
        self.summary: VebTree | None = None
        self.clusters: dict[int, VebTree] = {}
        self.population = 0

    def _check(self, x: int) -> None:
        if not 0 <= x < self.universe_bound:
            raise ValueError(
                f"key {x} outside universe [0, {self.universe_bound})"
            )

    def __len__(self) -> int:
        return self.population

    def __bool__(self) -> bool:
        return self.min is not None

    def __contains__(self, x: int) -> bool:
        self._check(x)
        return x == self.min or self._succ(x - 1) == x

    def insert(self, x: int) -> bool:
        """Insert x; returns True if x was absent (idempotent otherwise)."""
        self._check(x)
        new = self._insert(x)
        self.population += new
        return new

    def _insert(self, x: int) -> bool:
        if self.min is None:
            self.min = self.max = x
            return True
        if x == self.min or x == self.max:
            return False
        if x < self.min:
            self.min, x = x, self.min
        new = True
        if self._bits > 1:
            h = x >> self._lower_bits
            l = x & self._lower_mask
            cluster = self.clusters.get(h)
            if cluster is None:
                cluster = VebTree(1 << self._lower_bits)
                self.clusters[h] = cluster
            if cluster.min is None:
                if self.summary is None:
                    self.summary = VebTree(1 << (self._bits - self._lower_bits))
                self.summary._insert(h)
                cluster.min = cluster.max = l
            else:
                new = cluster._insert(l)
        # bits == 1: x differs from both cached keys, so it is the other
        # key of {0, 1} and lands in the max slot below.
        if new and x > self.max:
            self.max = x
        return new

    def delete(self, x: int) -> bool:
        """Delete x; returns True if present (no-op on absent keys)."""
        self._check(x)
        found = self._delete(x)
        self.population -= found
        return found

    def _delete(self, x: int) -> bool:
        if self.min is None:
            return False
        if x == self.min:
            if self.min == self.max:
                self.min = self.max = None
                return True
            if self._bits == 1:
                self.min = self.max
                return True
            # pull the new minimum out of the first occupied cluster
            c = self.summary.min
            cluster = self.clusters[c]
            self.min = (c << self._lower_bits) | cluster.min
            x = self.min
        elif self._bits == 1:
            if x == self.max and self.max != self.min:
                self.max = self.min
                return True
            return False
        h = x >> self._lower_bits
        l = x & self._lower_mask
        cluster = self.clusters.get(h)
        if cluster is None:
            return False
        if not cluster._delete(l):
            return False
        if cluster.min is None:
            self.summary._delete(h)
            if x == self.max:
                s_max = self.summary.max
                if s_max is None:
                    self.max = self.min
                else:
                    self.max = (s_max << self._lower_bits) | self.clusters[s_max].max
        elif x == self.max:
            self.max = (h << self._lower_bits) | cluster.max
        return True

    def successor(self, x: int) -> int | None:
        """Smallest stored key strictly greater than x, or None."""
        self._check(x)
        return self._succ(x)

    def _succ(self, x: int) -> int | None:
        if self._bits == 1:
            if x == 0 and self.max == 1:
                return 1
            return None
        if self.min is not None and x < self.min:
            return self.min
        h = x >> self._lower_bits
        l = x & self._lower_mask
        cluster = self.clusters.get(h)
        if cluster is not None and cluster.max is not None and l < cluster.max:
            return (h << self._lower_bits) | cluster._succ(l)
        sc = self.summary._succ(h) if self.summary is not None else None
        if sc is None:
            return None
        return (sc << self._lower_bits) | self.clusters[sc].min

    def predecessor(self, x: int) -> int | None:
        """Largest stored key strictly less than x, or None."""
        self._check(x)
        return self._pred(x)

    def _pred(self, x: int) -> int | None:
        if self._bits == 1:
            if x == 1 and self.min == 0:
                return 0
            return None
        if self.max is not None and x > self.max:
            return self.max
        h = x >> self._lower_bits
        l = x & self._lower_mask
        cluster = self.clusters.get(h)
        if cluster is not None and cluster.min is not None and l > cluster.min:
            return (h << self._lower_bits) | cluster._pred(l)
        pc = self.summary._pred(h) if self.summary is not None else None
        if pc is None:
            if self.min is not None and x > self.min:
                return self.min
            return None
        return (pc << self._lower_bits) | self.clusters[pc].max

    def __iter__(self):
        x = self.min
        while x is not None:
            yield x
            x = self._succ(x)

