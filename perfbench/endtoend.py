"""The untraced run: end-to-end latency, throughput, set-up time and memory."""

from __future__ import annotations

import random
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter, perf_counter_ns

import lcseq

import check
import jobs

MIN_PAIRS = 100  # p90 then has at least ten samples above it
SETUP_PER_PASS = 2  # spread over the run, so one slow moment does not set the median
SETUP_CMD = [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {str(Path(lcseq.__file__).parent.parent)!r}); "
             "from lcseq.cli import main; print('ready', flush=True)"]


def setup_seconds() -> float:
    """Seconds for a fresh process to import lcseq and report it can take a job.

    The clock stops at the child's "ready" line; its exit is not timed.
    """
    t0 = perf_counter_ns()
    with subprocess.Popen(SETUP_CMD, stdout=subprocess.PIPE) as child:
        ready = child.stdout.readline()
        elapsed = perf_counter_ns() - t0
        child.wait(timeout=120)
    if child.returncode != 0 or ready != b"ready\n":
        raise RuntimeError(f"set-up child failed: exit {child.returncode}, said {ready!r}")
    return elapsed / 1e9


def run(pairs, seed: int, seconds: float, checker: jobs.Checker) -> tuple[dict, dict]:
    """Closed loop over whole shuffled passes of all pairs.

    Stops at the first pass boundary after `seconds`, and not before
    MIN_PAIRS pairs. Set-up is sampled between passes. Returns (metrics,
    sample counts).
    """
    setup_seconds()  # discarded: the first import writes bytecode caches
    setup_s, length_ms, subseq_ms = [], [], []
    start = perf_counter()
    cycle = 0
    while len(length_ms) < MIN_PAIRS or perf_counter() - start < seconds:
        order = list(pairs)
        random.Random(f"{seed}:order:{cycle}").shuffle(order)
        for pair in order:
            ns_len, out_len, err_len = jobs.run_cli(jobs.argv("length", pair))
            ns_sub, out_sub, err_sub = jobs.run_cli(jobs.argv("subseq", pair))
            length_ms.append(ns_len / 1e6)
            subseq_ms.append(ns_sub / 1e6)
            checker.length(pair, out_len, err_len)
            checker.subseq(pair, out_sub, err_sub)
        setup_s.extend(setup_seconds() for _ in range(SETUP_PER_PASS))
        cycle += 1
    # read before the reference runs: its dense table is the benchmark's memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checker.finish({p.index: check.reference_length(*p.load()) for p in pairs})

    metrics = {
        "setup_s": median(setup_s),
        "length_ms_p50": median(length_ms),
        "length_ms_p90": quantiles(length_ms, n=10)[8],
        "subseq_ms_p50": median(subseq_ms),
        "subseq_ms_p90": quantiles(subseq_ms, n=10)[8],
        "pairs_per_s": len(length_ms) / ((sum(length_ms) + sum(subseq_ms)) / 1e3),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {k: len(length_ms) for k in metrics if k.startswith(("length", "subseq", "pairs"))}
    samples["setup_s"] = len(setup_s)
    return metrics, samples
