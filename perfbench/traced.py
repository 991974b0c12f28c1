"""The traced run: per-layer times and exact counts.

Every timing is taken from outside the program, with `perf_counter_ns`
around calls into a layer's public functions:

* Traced CLI jobs. For the length of one `lcseq length|subseq` call, the
  public functions that `lcseq.cli` and `lcseq.core` look up at call
  time are replaced with wrappers that open a span, then restored.
* Layer probes. Each pair is also run directly through the drivers of
  every backend, a replay of its match stream through
  `make_threshold_set(...).begin_row/update`, a replay of the same key
  stream through `VebTree` and `AvlTree`, `lcs_reconstruct` under
  tracemalloc, and `dp_oracle` where the pair is under its cap.

Spans are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from statistics import median
from time import perf_counter, perf_counter_ns

import lcseq.cli
import lcseq.core
from lcseq.bst import AvlTree
from lcseq.core import dp_oracle, lcs_length, lcs_reconstruct
from lcseq.matching import Sequence, SymbolTable, build_position_lists, count_matches, tokenize
from lcseq.threshold import BACKEND_NAMES, make_threshold_set
from lcseq.veb import VebTree

import check
import jobs

# (module, attribute the caller looks up, span name)
WRAPPED = (
    (lcseq.cli, "tokenize", "matching.tokenize"),
    (lcseq.core, "build_position_lists", "matching.position_lists"),
    (lcseq.core, "count_matches", "matching.count_matches"),
    (lcseq.cli, "lcs_length", "core.lcs_length"),
    (lcseq.cli, "lcs_reconstruct", "core.reconstruct"),
    (lcseq.core, "extract_lcs", "core.extract"),
    (lcseq.cli, "validate_common_subsequence", "core.validate"),
)


class Tracer:
    """Spans of the current job: name, start, end, parent, job id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job = 0
        self._open: list[int] = []

    def new_job(self) -> None:
        self.job += 1

    @contextmanager
    def span(self, name: str):
        rec = {"job": self.job, "id": len(self.spans),
               "parent": self._open[-1] if self._open else None,
               "name": name, "start": 0, "end": 0}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter_ns()
            self._open.pop()


@contextmanager
def instrumented(tracer: Tracer):
    def wrap(name, fn):
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return traced

    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
    for (mod, attr, fn), (_, _, name) in zip(saved, WRAPPED):
        setattr(mod, attr, wrap(name, fn))
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _replay_primitives(tree, stream, with_pred: bool) -> dict[str, int]:
    """Replay the threshold key stream on a bare VebTree or AvlTree.

    Per update j that replaced y (0: none): successor(j-1), delete(y),
    insert(j), and for the vEB also predecessor(j), as `lcs_reconstruct`
    asks. Returns total ns and count per operation, plus mismatches
    between successor results and the reference stream.
    """
    now = perf_counter_ns
    acc = dict.fromkeys(("insert", "delete", "successor", "predecessor"), 0)
    ops = dict.fromkeys(acc, 0)
    bad = 0
    for j, y in stream:
        t0 = now()
        s = tree.successor(j - 1)
        t1 = now()
        acc["successor"] += t1 - t0
        if (s or 0) != y:
            bad += 1
        if y:
            t0 = now()
            tree.delete(y)
            t1 = now()
            acc["delete"] += t1 - t0
            ops["delete"] += 1
        t0 = now()
        tree.insert(j)
        t1 = now()
        acc["insert"] += t1 - t0
        if with_pred:
            t0 = now()
            tree.predecessor(j)
            t1 = now()
            acc["predecessor"] += t1 - t0
    ops["successor"] = ops["insert"] = len(stream)
    ops["predecessor"] = len(stream) if with_pred else 0
    out = {f"{op}_ns": acc[op] for op in acc} | {f"{op}_ops": ops[op] for op in ops}
    out["mismatches"] = bad
    return out


def _reference(pair) -> tuple:
    """The benchmark's own view of a pair: tokens, match rows, update stream, L."""
    xt, yt = pair.load()
    rows = check.match_rows(xt, yt)
    stream, length = check.threshold_stream(rows)
    return xt, yt, rows, stream, length


def _probe(tracer: Tracer, checker: jobs.Checker, pair, xt, yt, rows, stream, ref) -> dict:
    """Run every layer probe on one pair; returns its exact counts."""
    r = len(stream)
    if check.under_dp_cap(xt, yt):
        sx, sy = check.as_symbols(xt, yt)
        sx, sy = Sequence(sx), Sequence(sy)
        with tracer.span("core.dp_oracle"):
            table = dp_oracle(sx, sy)
        checker.check(int(table[len(sx)][len(sy)]) == ref,
                      f"pair {pair.index}: bisect and dp_oracle references disagree")
        del table

    table = SymbolTable() if pair.mode == "lines" else None
    x = tokenize(pair.a.read_bytes(), pair.mode, table)
    y = tokenize(pair.b.read_bytes(), pair.mode, table)
    pl = build_position_lists(y)
    checker.check(count_matches(x, pl).r == r,
                  f"pair {pair.index}: count_matches disagrees with the reference R = {r}")

    results = {}
    for b in BACKEND_NAMES:
        with tracer.span(f"threshold.{b}.driver"):
            results[b] = lcs_length(x, y, backend=b, position_lists=pl)
        checker.claim(pair, results[b].length, f"lcs_length[{b}]")

    noop_ref = sum(j == y_ for j, y_ in stream)
    for b in BACKEND_NAMES:
        ts = make_threshold_set(pl.length, b)
        noop = 0
        with tracer.span(f"threshold.{b}.replay") as s:
            for row in rows:
                ts.begin_row()
                for j in row:
                    if ts.update(j) == j:
                        noop += 1
        s["updates"] = r
        checker.claim(pair, ts.size(), f"replay[{b}]")
        checker.check(noop == noop_ref,
                      f"replay[{b}] pair {pair.index}: {noop} no-op updates, reference {noop_ref}")

    for name, tree, with_pred in (("veb", VebTree(pl.length + 1), True), ("bst", AvlTree(), False)):
        with tracer.span(f"{name}.replay") as s:
            s.update(_replay_primitives(tree, stream, with_pred))
        checker.claim(pair, len(tree), f"{name} replay")
        checker.check(not s["mismatches"],
                      f"{name} replay pair {pair.index}: {s['mismatches']} successor mismatches")

    tracemalloc.start()
    try:
        recon = lcs_reconstruct(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    checker.claim(pair, recon.length, "lcs_reconstruct")
    lcs = recon.subsequence
    checker.check(len(lcs) == recon.length and check.is_subsequence(lcs, x.symbols)
                  and check.is_subsequence(lcs, y.symbols),
                  f"lcs_reconstruct pair {pair.index}: invalid subsequence")

    rc = results["array"].row_costs or []
    return {
        "R": r,
        "L": ref,
        "sigma": len(set(xt) | set(yt)),
        "ops": results["veb"].counters.structure_total(),
        "noop": noop_ref,
        "scan_cmp": sum(c.comparisons for c in rc),
        "rows": len(rc),
        "trace_entries": recon.trace.count,
        "peak_bytes": peak,
    }


def _cli_pair(tracer: Tracer, checker: jobs.Checker, pair,
              with_trace: bool) -> tuple[int, str | None]:
    """length then subseq on one pair; returns (total ns, backend chosen)."""
    total = 0
    backend = None
    for kind in ("length", "subseq"):
        if with_trace:
            tracer.new_job()
            with instrumented(tracer), tracer.span(f"cli.{kind}"):
                ns, out, err = jobs.run_cli(jobs.argv(kind, pair))
        else:
            ns, out, err = jobs.run_cli(jobs.argv(kind, pair))
        total += ns
        if kind == "length":
            backend = checker.length(pair, out, err)
        else:
            checker.subseq(pair, out, err)
    return total, backend


def run(pairs, seed: int, seconds: float, checker: jobs.Checker) -> tuple[dict, dict, list[dict]]:
    """Traced run over every third pair of the size grid, in whole passes.

    Returns (per-layer metrics, exact counts, spans).
    """
    probe_pairs = pairs[1::3]
    tracer = Tracer()
    refs = {p.index: _reference(p) for p in probe_pairs}
    counts: dict[int, dict] = {}
    backends: dict[int, str | None] = {}
    plain_ns = traced_ns = 0
    start = perf_counter()
    cycle = 0
    while cycle == 0 or perf_counter() - start < seconds:
        order = list(probe_pairs)
        random.Random(f"{seed}:trace:{cycle}").shuffle(order)
        for pair in order:
            # alternate which side runs first, so neither gets a warmer start
            for with_trace in ((False, True) if cycle % 2 == 0 else (True, False)):
                ns, backend = _cli_pair(tracer, checker, pair, with_trace)
                if with_trace:
                    traced_ns += ns
                    backends.setdefault(pair.index, backend)
                else:
                    plain_ns += ns
            tracer.new_job()
            try:
                c = _probe(tracer, checker, pair, *refs[pair.index])
            except Exception as exc:  # a failed probe must not end the run
                checker.check(False, f"probe pair {pair.index}: {type(exc).__name__}: {exc}")
            else:
                counts.setdefault(pair.index, c)
        cycle += 1
    checker.finish({index: ref[-1] for index, ref in refs.items()})
    exact = _exact_counts(list(counts.values()), list(backends.values()))
    metrics = _layer_metrics(tracer.spans, counts) | exact
    metrics["trace.overhead_frac"] = traced_ns / plain_ns - 1
    return metrics, exact, tracer.spans


def _exact_counts(counts: list[dict], backends: list[str | None]) -> dict:
    """Counts that depend only on the inputs and the program.

    They must repeat exactly across runs with the same seed.
    """
    total = {k: sum(c[k] for c in counts) for k in counts[0]}
    out = {
        "matching.R": median(c["R"] for c in counts),
        "matching.L": median(c["L"] for c in counts),
        "matching.sigma": median(c["sigma"] for c in counts),
        "threshold.ops_per_match": total["ops"] / total["R"],
        "threshold.noop_update_frac": total["noop"] / total["R"],
        "threshold.array.scan_cmp_per_row": total["scan_cmp"] / total["rows"],
        "core.trace_entries": median(c["trace_entries"] for c in counts),
        "core.trace_entries_per_match": total["trace_entries"] / total["R"],
    }
    for b in BACKEND_NAMES:
        out[f"cli.backend.{b}"] = backends.count(b)
    return out


def _dur(span: dict) -> int:
    return span["end"] - span["start"]


def _layer_metrics(spans: list[dict], counts: dict[int, dict]) -> dict:
    by_name = defaultdict(list)
    child_ns = defaultdict(int)
    job_sum = defaultdict(lambda: defaultdict(int))
    for s in spans:
        by_name[s["name"]].append(s)
        job_sum[s["name"]][s["job"]] += _dur(s)
        if s["parent"] is not None:
            child_ns[s["parent"]] += _dur(s)
    cli_jobs = {s["job"] for s in by_name["cli.length"] + by_name["cli.subseq"]}

    def per_job_ms(name: str, jobs_: set[int]) -> float:
        """Median over jobs of the time spent in `name` spans per job."""
        return median(job_sum[name].get(j, 0) for j in jobs_) / 1e6

    def median_ms(name: str) -> float:
        return median(_dur(s) for s in by_name[name]) / 1e6

    subseq_jobs = {s["job"] for s in by_name["cli.subseq"]}
    m = {
        "matching.tokenize_ms": per_job_ms("matching.tokenize", cli_jobs),
        "matching.position_lists_ms": per_job_ms("matching.position_lists", cli_jobs),
        "matching.count_matches_ms": per_job_ms("matching.count_matches", cli_jobs),
        "core.reconstruct_ms": per_job_ms("core.reconstruct", subseq_jobs),
        "core.extract_ms": per_job_ms("core.extract", subseq_jobs),
        "core.validate_ms": per_job_ms("core.validate", subseq_jobs),
        "core.dp_oracle_ms": median_ms("core.dp_oracle"),
        "core.reconstruct_peak_mb": max(c["peak_bytes"] for c in counts.values()) / 2**20,
    }
    for kind in ("length", "subseq"):
        m[f"cli.{kind}_self_ms"] = median(
            _dur(s) - child_ns[s["id"]] for s in by_name[f"cli.{kind}"]) / 1e6
    for b in BACKEND_NAMES:
        m[f"threshold.{b}.driver_ms"] = median_ms(f"threshold.{b}.driver")
        replays = by_name[f"threshold.{b}.replay"]
        m[f"threshold.{b}.update_ns"] = sum(map(_dur, replays)) / sum(s["updates"] for s in replays)
    for name, ops in (("veb", ("insert", "delete", "successor", "predecessor")),
                      ("bst", ("insert", "delete", "successor"))):
        replays = by_name[f"{name}.replay"]
        for op in ops:
            # 0 when the stream has no such operation (diff_lines never deletes)
            n_ops = sum(s[f"{op}_ops"] for s in replays)
            m[f"{name}.{op}_ns"] = sum(s[f"{op}_ns"] for s in replays) / n_ops if n_ops else 0.0
    return m
