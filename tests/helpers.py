"""Shared independent oracles for the test suite."""

from __future__ import annotations

import itertools
import subprocess
import sys
from bisect import bisect_right, insort
from pathlib import Path

from lcseq import core
from lcseq.matching import MatchStats, Sequence, tokenize
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
    """Reference for the vEB and AVL trees: plain sorted list."""

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


class CountedKey(int):
    """An int key that counts, in ``CountedKey.compared``, every <, > and == it takes part in.

    Against a plain int on the left, Python calls this subclass's
    reflected method, so a comparison counts whichever side it is on.
    Arithmetic on a key gives a plain int.
    """

    compared = 0

    def __lt__(self, other):
        CountedKey.compared += 1
        return int.__lt__(self, other)

    def __gt__(self, other):
        CountedKey.compared += 1
        return int.__gt__(self, other)

    def __eq__(self, other):
        CountedKey.compared += 1
        return int.__eq__(self, other)

    __hash__ = int.__hash__


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
    that verification catches a wrong backend.  It changes only the
    replace step; ``ThresholdSet.update`` still range-checks.
    """

    def _replace(self, x: int) -> int | None:
        k = self.tree.successor(x - 1)
        replaced = None
        if k and k < self.max():
            self.tree.delete(k)
            replaced = k
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


def overcounting_kernel(rows, kernel=core._threshold_rows):
    """The bisect kernel with one member too many: it reports L + 1."""
    s = kernel(rows)
    return s + [s[-1] + 1]


def run_cli_with_overcounting_kernel(*args: str) -> subprocess.CompletedProcess:
    """`lcseq <args>` in a subprocess whose bisect kernel reports L + 1."""
    return _run_patched_cli(
        "import lcseq.core\n"
        "from helpers import overcounting_kernel\n"
        "lcseq.core._threshold_rows = overcounting_kernel",
        *args,
    )


def overcounting_bitpar(symbols, masks, n, rows=None, kernel=core._bitpar_rows):
    """The bit-parallel length kernel, reporting L + 1 where it runs for a length alone (no ``rows``)."""
    return kernel(symbols, masks, n, rows) + (rows is None)


def run_cli_with_overcounting_bitpar(*args: str) -> subprocess.CompletedProcess:
    """`lcseq <args>` in a subprocess whose bitpar length kernel reports L + 1."""
    return _run_patched_cli(
        "import lcseq.core\n"
        "from helpers import overcounting_bitpar\n"
        "lcseq.core._bitpar_rows = overcounting_bitpar",
        *args,
    )


def overcounting_matches(x, pl, count=core.count_matches):
    """``count_matches``, reporting R + 1."""
    stats = count(x, pl)
    return MatchStats(r=stats.r + 1, n=stats.n, m=stats.m)


def run_cli_with_overcounting_matches(*args: str) -> subprocess.CompletedProcess:
    """`lcseq <args>` in a subprocess whose position-list count of R is one too many."""
    return _run_patched_cli(
        "import lcseq.core\n"
        "from helpers import overcounting_matches\n"
        "lcseq.core.count_matches = overcounting_matches",
        *args,
    )


def run_cli_with_short_extract(*args: str) -> subprocess.CompletedProcess:
    """`lcseq <args>` in a subprocess whose LCS read-back returns no symbols."""
    return _run_patched_cli(
        "import lcseq.core\n"
        "lcseq.core.extract_lcs = lambda trace, k, y: ()",
        *args,
    )


def run_cli_with_failed_allocation(*args: str) -> subprocess.CompletedProcess:
    """`lcseq <args>` in a subprocess whose reconstruction raises a bare ``MemoryError``."""
    return _run_patched_cli(
        "import lcseq.cli\n"
        "def out_of_memory(*args, **kwargs):\n"
        "    raise MemoryError\n"
        "lcseq.cli.lcs_reconstruct = out_of_memory",
        *args,
    )


def run_cli_with_failed_validation(*args: str) -> subprocess.CompletedProcess:
    """`lcseq <args>` in a subprocess whose CLI rejects every reconstructed LCS."""
    return _run_patched_cli(
        "import lcseq.cli\n"
        "lcseq.cli.validate_common_subsequence = lambda candidate, x, y, length: False",
        *args,
    )
