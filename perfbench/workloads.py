"""Seeded input-file pairs for the benchmark workloads.

Every workload places its pair sizes on a fixed log-spaced grid: one pair
at the midpoint of each of `STRATA` equal slices of a log-uniform range.
Every seed therefore runs the same size mix, and only the contents
change with the seed. That keeps p50/p90 comparable across seeds while
still covering the whole size range.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

STRATA = 25


@dataclass(frozen=True)
class Pair:
    index: int
    n: int
    mode: str
    a: Path
    b: Path

    def load(self) -> tuple:
        """The two inputs as token sequences: ints (bytes) or lines."""
        a, b = self.a.read_bytes(), self.b.read_bytes()
        if self.mode == "lines":
            return a.splitlines(), b.splitlines()
        return a, b


@dataclass(frozen=True)
class Workload:
    mode: str
    lo: int
    hi: int
    make: Callable[[int, random.Random], tuple[bytes, bytes]]

    def sizes(self) -> list[int]:
        ratio = self.hi / self.lo
        return [round(self.lo * ratio ** ((k + 0.5) / STRATA)) for k in range(STRATA)]


def _dense_dna(n: int, rng: random.Random) -> tuple[bytes, bytes]:
    return bytes(rng.choices(b"ACGT", k=n)), bytes(rng.choices(b"ACGT", k=n))


def _near_bytes(n: int, rng: random.Random) -> tuple[bytes, bytes]:
    x = rng.randbytes(n)
    y = bytearray(x)
    for i in rng.sample(range(n), round(0.05 * n)):
        y[i] = (y[i] + rng.randrange(1, 256)) % 256  # always a different byte
    return x, bytes(y)


def _diff_lines(n: int, rng: random.Random) -> tuple[bytes, bytes]:
    # Unique ASCII lines; y deletes, edits and inserts about 2% each.
    def fill() -> bytes:
        return rng.randbytes(rng.randrange(4, 32)).hex().encode()

    x = [b"L%06x %s" % (i, fill()) for i in range(n)]
    y = []
    for i, line in enumerate(x):
        r = rng.random()
        if r >= 0.04:
            y.append(line)
        elif r >= 0.02:
            y.append(line + b" /* edited */")
        if rng.random() < 0.02:
            y.append(b"I%06x %s" % (i, fill()))
    return b"\n".join(x) + b"\n", b"\n".join(y) + b"\n"


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "dense_dna": Workload("bytes", 96, 384, _dense_dna),
    "near_bytes": Workload("bytes", 384, 3072, _near_bytes),
    "diff_lines": Workload("lines", 1024, 65536, _diff_lines),
}


def generate(name: str, seed: int, workdir: Path) -> list[Pair]:
    """Write the workload's pairs for `seed` under `workdir`."""
    w = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    pairs = []
    for k, n in enumerate(w.sizes()):
        a, b = w.make(n, random.Random(f"{name}:{seed}:{k}"))
        pa, pb = workdir / f"{k:02d}.a", workdir / f"{k:02d}.b"
        pa.write_bytes(a)
        pb.write_bytes(b)
        pairs.append(Pair(k, n, w.mode, pa, pb))
    return pairs
