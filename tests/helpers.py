"""Shared independent oracles for the test suite."""

from __future__ import annotations

import itertools
import subprocess
import sys
from bisect import bisect_right, insort
from pathlib import Path

from lcseq import core
from lcseq.matching import Sequence, tokenize
from lcseq.threshold import VebBackend


def from_text(text: str) -> Sequence:
    """Byte-tokenize a str (latin-1)."""
    return tokenize(text.encode("latin-1"), "bytes")


def brute_force_lcs_length(x: Sequence, y: Sequence) -> int:
    """Exhaustive enumeration of subsequences of the shorter input."""
    a, b = (x.symbols, y.symbols) if len(x) <= len(y) else (y.symbols, x.symbols)
    for length in range(len(a), 0, -1):
        for cand in itertools.combinations(a, length):
            it = iter(b)
            if all(any(s == c for s in it) for c in cand):
                return length
    return 0


def brute_force_matches(x: Sequence, y: Sequence) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(1, len(x) + 1)
        for j in range(1, len(y) + 1)
        if x.symbols[i - 1] == y.symbols[j - 1]
    ]


class SortedSetOracle:
    """Reference for the vEB tree: plain sorted list."""

    def __init__(self):
        self.items: list[int] = []

    def insert(self, x: int) -> bool:
        if x in self.items:
            return False
        insort(self.items, x)
        return True

    def delete(self, x: int) -> bool:
        if x in self.items:
            self.items.remove(x)
            return True
        return False

    def member(self, x: int) -> bool:
        return x in self.items

    def min(self) -> int | None:
        return self.items[0] if self.items else None

    def max(self) -> int | None:
        return self.items[-1] if self.items else None

    def successor(self, x: int) -> int | None:
        i = bisect_right(self.items, x)
        return self.items[i] if i < len(self.items) else None

    def predecessor(self, x: int) -> int | None:
        from bisect import bisect_left

        i = bisect_left(self.items, x)
        return self.items[i - 1] if i > 0 else None


def reference_update(contents: list[int], x: int) -> int | None:
    """Literal successor-replacement rule on a sorted list (in place).

    Returns the replaced element or None when appended.
    """
    succ = next((v for v in contents if v > x - 1), 0)
    if succ:
        contents.remove(succ)
        insort(contents, x)
        return succ
    insort(contents, x)
    return None


class LiteralGuardVebBackend(VebBackend):
    """vEB threshold set with the published pseudocode's guard k < Max(S).

    The guard skips the delete when the successor is the current maximum,
    so the set can over-grow.  Deliberately faulty: tests inject it to show
    that verification catches a wrong backend.
    """

    def update(self, x: int) -> int | None:
        if not 1 <= x <= self.capacity:
            raise self._range_error("update", x, 1)
        self.counters.update += 1
        self.counters.succ += 1
        k = self.tree.successor(x - 1)
        replaced = None
        if k and k < self.max():
            self.counters.delete += 1
            self.tree.delete(k)
            replaced = k
        self.counters.insert += 1
        self.tree.insert(x)
        return replaced


_PATCHED_CLI = """\
import sys
sys.path.insert(0, sys.argv.pop(1))
{patch}
from lcseq.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_patched_cli(patch: str, *args: str) -> subprocess.CompletedProcess:
    """`lcseq <args>` in a subprocess that first runs `patch` (tests/ is importable)."""
    return subprocess.run(
        [sys.executable, "-c", _PATCHED_CLI.format(patch=patch), str(Path(__file__).parent), *args],
        capture_output=True,
        timeout=120,
    )


def run_cli_with_literal_guard(*args: str) -> subprocess.CompletedProcess:
    """`lcseq <args>` in a subprocess whose veb threshold sets are the faulty variant."""
    return _run_patched_cli(
        "import lcseq.threshold\n"
        "from helpers import LiteralGuardVebBackend\n"
        "lcseq.threshold.VebBackend = LiteralGuardVebBackend",
        *args,
    )


def overcounting_kernel(symbols, lists, kernel=core._threshold_rows):
    """The bisect kernel with one member too many: it reports L + 1."""
    s = kernel(symbols, lists)
    return s + [s[-1] + 1]


def run_cli_with_overcounting_kernel(*args: str) -> subprocess.CompletedProcess:
    """`lcseq <args>` in a subprocess whose bisect kernel reports L + 1."""
    return _run_patched_cli(
        "import lcseq.core\n"
        "from helpers import overcounting_kernel\n"
        "lcseq.core._threshold_rows = overcounting_kernel",
        *args,
    )


def overcounting_bitpar(symbols, lists, n, kernel=core._bitpar_rows):
    """The bit-parallel length kernel, reporting L + 1."""
    return kernel(symbols, lists, n) + 1


def run_cli_with_overcounting_bitpar(*args: str) -> subprocess.CompletedProcess:
    """`lcseq <args>` in a subprocess whose bitpar length kernel reports L + 1."""
    return _run_patched_cli(
        "import lcseq.core\n"
        "from helpers import overcounting_bitpar\n"
        "lcseq.core._bitpar_rows = overcounting_bitpar",
        *args,
    )


def run_cli_with_short_extract(*args: str) -> subprocess.CompletedProcess:
    """`lcseq <args>` in a subprocess whose LCS read-back returns no symbols."""
    return _run_patched_cli(
        "import lcseq.core\n"
        "lcseq.core.extract_lcs = lambda trace, k, y: ()",
        *args,
    )


def run_cli_with_failed_validation(*args: str) -> subprocess.CompletedProcess:
    """`lcseq <args>` in a subprocess whose CLI rejects every reconstructed LCS."""
    return _run_patched_cli(
        "import lcseq.cli\n"
        "lcseq.cli.validate_common_subsequence = lambda candidate, x, y, length: False",
        *args,
    )
