"""Deterministic benchmark cases, instrumented runs, CSV/JSON reports.

Asymptotic claims are not falsifiable from wall time at desk scale, so
the harness leans on exact operation counters; timing is collected
(minimum over repeats) but treated as advisory.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import asdict, dataclass, fields

from .core import (BACKEND_NAMES, BENCH_BACKENDS, STRUCTURES, OpCounters, _count,
                   check_dp_cap, dp_oracle, lcs_length)
from .matching import Sequence

__all__ = [
    "BenchCase",
    "BenchRecord",
    "BenchDisagreement",
    "STRUCTURES",
    "REPORT_COLUMNS",
    "gen_sequence",
    "gen_pair",
    "run_bench",
    "emit_report",
    "default_cases",
]


class BenchDisagreement(RuntimeError):
    pass


@dataclass(frozen=True)
class BenchCase:
    case_id: str
    n: int
    m: int
    sigma: int
    seed: int
    structure: str = "uniform_random"
    backends: tuple[str, ...] = BACKEND_NAMES

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
        for b in self.backends:
            if b not in BENCH_BACKENDS:
                raise ValueError(f"unknown backend {b!r}")


@dataclass(frozen=True)
class BenchRecord:
    case_id: str
    structure: str
    n: int
    m: int
    sigma: int
    seed: int
    backend: str
    R: int
    L: int
    time_ns: int
    ops_succ: int
    ops_pred: int
    ops_insert: int
    ops_delete: int
    ops_update: int


REPORT_COLUMNS = tuple(f.name for f in fields(BenchRecord))


def _uniform(n: int, sigma: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randrange(sigma) for _ in range(n))


def gen_sequence(n: int, sigma: int, seed: int, structure: str) -> Sequence:
    """Deterministic sequence; (seed, parameters) fix the output."""
    if sigma < 1:
        raise ValueError("alphabet size must be >= 1")
    rng = random.Random(f"{seed}:{n}:{sigma}:{structure}")
    if structure == "uniform_random":
        return Sequence(_uniform(n, sigma, rng))
    if structure == "repeated_block":
        # small fixed effective alphabet keeps the match set dense; the
        # seed only rotates the block
        eff = max(1, min(sigma, 4))
        shift = rng.randrange(eff)
        block = tuple((shift + k) % eff for k in range(eff))
        reps = n // eff + 1
        return Sequence((block * reps)[:n])
    if structure == "near_identical":
        # perturbed copy of the uniform draw for the same (seed, n, sigma)
        base = list(
            _uniform(n, sigma, random.Random(f"{seed}:{n}:{sigma}:uniform_random"))
        )
        for i in range(n):
            if rng.random() < 0.05:
                base[i] = rng.randrange(sigma)
        return Sequence(tuple(base))
    raise ValueError(f"unknown structure {structure!r}")


def gen_pair(case: BenchCase) -> tuple[Sequence, Sequence]:
    if case.structure == "near_identical":
        x = gen_sequence(case.m, case.sigma, case.seed, "uniform_random")
        y = gen_sequence(case.n, case.sigma, case.seed, "near_identical")
        return x, y
    x = gen_sequence(case.m, case.sigma, case.seed, case.structure)
    y = gen_sequence(case.n, case.sigma, case.seed + 1, case.structure)
    return x, y


def run_bench(cases: list[BenchCase], repeats: int = 3) -> list[BenchRecord]:
    """Run every enabled backend per case; min-of-repeats timing.

    Each row reports the R of its own call, and a ``dp_oracle`` row the
    count step's (``_count`` under ``auto``, which builds no kernel's
    index), counted only for that row and outside its ``time_ns``.  Each
    timed call builds its own index, so ``time_ns`` covers the whole call,
    but not the first-use imports: numpy and the named sets' modules load
    before any call is timed.  Backends that differ on L or on R raise
    ``BenchDisagreement``.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    oracle_cases = [case for case in cases if "dp_oracle" in case.backends]
    for case in oracle_cases:  # every dense cap before any case runs
        check_dp_cap(case.m, case.n)
    if oracle_cases:
        import numpy  # noqa: F401  (dp_oracle imports it lazily; keep that out of time_ns)
    named = {b for case in cases for b in case.backends if b in BACKEND_NAMES}
    if named:
        from .threshold import make_threshold_set

        for backend in named:
            make_threshold_set(1, backend)
    records: list[BenchRecord] = []
    for case in cases:
        x, y = gen_pair(case)
        lengths: dict[str, int] = {}
        counts: dict[str, int] = {}
        for backend in case.backends:
            best_ns = None
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                if backend == "dp_oracle":
                    table = dp_oracle(x, y)
                else:
                    res = lcs_length(x, y, backend=backend)
                wall = time.perf_counter_ns() - t0
                if best_ns is None or wall < best_ns:
                    best_ns = wall
            if backend == "dp_oracle":
                name, r, c = backend, _count(x, y, "auto")[0].r, OpCounters()
                length = int(table[len(x.symbols)][len(y.symbols)])
            else:
                # a record names the kernel `auto` ran; the checks key by the name asked for
                name, length, r, c = res.backend, res.length, res.stats.r, res.counters
            lengths[backend] = length
            counts[backend] = r
            records.append(
                BenchRecord(
                    case_id=case.case_id,
                    structure=case.structure,
                    n=case.n,
                    m=case.m,
                    sigma=case.sigma,
                    seed=case.seed,
                    backend=name,
                    R=r,
                    L=length,
                    time_ns=best_ns,
                    ops_succ=c.succ,
                    ops_pred=c.pred,
                    ops_insert=c.insert,
                    ops_delete=c.delete,
                    ops_update=c.update,
                )
            )
        if len(set(lengths.values())) > 1:
            raise BenchDisagreement(
                f"case {case.case_id}: backends disagree on L: {lengths}"
            )
        if len(set(counts.values())) > 1:
            raise BenchDisagreement(f"case {case.case_id}: backends disagree on R: {counts}")
    return records


def emit_report(records: list[BenchRecord], fmt: str = "csv") -> str:
    """Serialize records with a stable column order."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=REPORT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow(asdict(rec))
        return buf.getvalue()
    if fmt == "json":
        return json.dumps([asdict(rec) for rec in records], indent=2)
    raise ValueError(f"unknown report format {fmt!r}")


def default_cases(
    n: int = 128,
    sigma: int = 4,
    seed: int = 0,
    structure: str = "uniform_random",
    backends: tuple[str, ...] = BACKEND_NAMES,
) -> list[BenchCase]:
    """Small default suite: the requested case at three sizes."""
    cases = []
    for idx, size in enumerate((max(n // 2, 1), n, n * 2)):
        cases.append(
            BenchCase(
                case_id=f"case{idx}",
                n=size,
                m=size,
                sigma=sigma,
                seed=seed + idx,
                structure=structure,
                backends=backends,
            )
        )
    return cases
