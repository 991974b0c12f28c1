#!/usr/bin/env python3
"""lcseq benchmark: `lcseq length` then `lcseq subseq` on generated file pairs.

Run from the repository root:

    python3 perfbench/run.py --workload dense_dna --seed 1 --seconds 25 --trace 0

The pairs come from --seed alone (see workloads.py). Each CLI job runs in
this process through `lcseq.cli.main(argv)` with stdout captured, in a
closed loop with one client and no extra threads. Every answer is checked
against the benchmark's own reference (check.py), outside the timed
region.

--trace 0 runs endtoend.py and prints the end-to-end metrics; --trace 1
runs traced.py and prints the per-layer metrics. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
Run records and spans are written under .perfbench_out/ in the
repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_digest() -> str:
    """Hash of the program and benchmark sources, standing in for a commit."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "lcseq").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of a git checkout at the root, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_meta(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def determinism_check(workload: str, seed: int, digest: str, exact: dict) -> str | None:
    """Compare exact counts with an earlier run of the same sources and seed."""
    path = OUT / "counts" / f"{workload}-{seed}-{digest[:16]}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        diff = {k: (before.get(k), v) for k, v in exact.items() if before.get(k) != v}
        return f"exact counts differ from {path.name}: {diff}" if diff else None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(exact, indent=1, sort_keys=True))
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lcseq" / "__init__.py").is_file():
        print(f"error: lcseq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import lcseq
    if Path(lcseq.__file__).resolve().parent != SRC / "lcseq":
        print(f"error: imported lcseq from {lcseq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import jobs

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = run_meta(args, numpy.__version__)
    print("# meta " + json.dumps(meta), flush=True)
    checker = jobs.Checker()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        pairs = workloads.generate(args.workload, args.seed, workdir)
        if args.trace:
            import traced
            metrics, exact, spans = traced.run(pairs, args.seed, args.seconds, checker)
            problem = determinism_check(args.workload, args.seed, meta["source_digest"], exact)
            checker.check(problem is None, problem or "")
            samples = {}
        else:
            import endtoend
            metrics, samples = endtoend.run(pairs, args.seed, args.seconds, checker)
            spans = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # report exactly the metrics BENCHMARK.json lists, in its order and units
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: measured metrics and BENCHMARK.json differ in "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 2
    metrics = {name: metrics[name] for name in units}

    failed_frac = checker.failed / checker.attempted
    for name, value in metrics.items():
        n = f"  ({samples[name]} samples)" if name in samples else ""
        print(f"{args.workload}  {name} = {value:.6g} {units[name]}{n}")
    print(f"{args.workload}  failed_frac = {failed_frac:.6g}  "
          f"({checker.failed} of {checker.attempted} jobs)")
    for job, message in sorted(checker.failures.items())[:10]:
        print(f"FAILED job {job}: {message}", file=sys.stderr)

    record = {"meta": meta, "metrics": metrics, "units": units, "samples": samples,
              "attempted": checker.attempted, "failed": checker.failed,
              "failures": checker.failures}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")

    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
