"""Command-line interface: length, subseq, stats, verify, bench.

Exit codes: 0 success, 1 verification mismatch or failed self-check,
2 usage or I/O error (output the stdout encoding cannot write included),
3 resource cap exceeded or out of memory.

``verify`` checks every length backend, and reconstruction under ``auto``
and both kernels by name, against the dense oracle's L and one R (and
runs the shadow checker on small inputs), but runs the named sets
(veb, tree, array) only while R <= ``VERIFY_SETS_MAX_R``; above it, its
``ok:`` line (or a last stderr line after the ``FAIL:`` lines) names the
skipped sets.

``length`` and ``subseq`` load only this module, ``core`` and
``matching``, and none of ``threshold``, ``dataclasses``, ``json`` or
``typing``: ``json`` is imported only to write ``--output json``, and
``verify`` and ``bench`` import the shadow checker and the benchmark
harness when they run.
``main`` builds the parser on its first call and reuses it for the rest
of the process. When argv[0] names a subcommand, ``main`` hands argv[1:]
straight to that subcommand's parser, which is all the full parser would
do with it; the full ``build_parser().parse_args(argv)`` runs only when
argv[0] names no subcommand or the subcommand's parser leaves arguments
over, so help and usage errors print as they always have. A closed
standard input (for ``-``) or standard output is an I/O error (exit 2).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .core import (
    BACKEND_NAMES,
    BENCH_BACKENDS,
    BITPAR_WORDS_PER_MATCH,
    DEFAULT_TRACE_CAP,
    KERNEL_NAMES,
    LENGTH_BACKENDS,
    STRUCTURES,
    _count,
    dp_oracle,
    lcs_length,
    lcs_reconstruct,
    validate_common_subsequence,
)
from .matching import MODES, MatchStats, Sequence, tokenize

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# `verify` runs the named sets (veb, tree, array) only up to this many
# matches R: above it `tree` alone costs seconds (about 8 us per match,
# 2-core x86_64, Python 3.11).
VERIFY_SETS_MAX_R = 1 << 18


def _read_input(path: str, allow_stdin: bool) -> bytes:
    if path == "-":
        if not allow_stdin:
            raise OSError("'-' (standard input) is only allowed for the first input")
        if sys.stdin is None:  # fd 0 closed at start-up
            raise OSError("standard input is closed")
        return sys.stdin.buffer.read()
    with open(path, "rb", buffering=0) as fh:  # read() is one readall; a buffer adds only set-up
        return fh.read()


def _load_pair(args) -> tuple[Sequence, Sequence]:
    x = tokenize(_read_input(args.inputs[0], allow_stdin=True), args.mode)
    y = tokenize(_read_input(args.inputs[1], allow_stdin=False), args.mode)
    return x, y


def _emit(stats: MatchStats, output: str, lines: list[str] | None = None, **fields) -> None:
    """Print m, n and R from ``stats``, then ``fields``: as one JSON object, or as ``lines``.

    ``lines`` defaults to one ``key = value`` line per key, m, n and R included.
    """
    payload = {"m": stats.m, "n": stats.n, "R": stats.r, **fields}
    if output == "json":
        import json

        print(json.dumps(payload))
    else:
        for line in lines or [f"{k} = {v}" for k, v in payload.items()]:
            print(line)


def _render_tokens(tokens, mode: str) -> str:
    # a line token holds no line break, so no UTF-8 sequence spans two lines
    if mode == "lines":
        return b"\n".join(tokens).decode("utf-8", "replace")
    return bytes(tokens).decode("latin-1")


def cmd_length(args) -> int:
    x, y = _load_pair(args)
    result = lcs_length(x, y, backend=args.backend)
    _emit(result.stats, args.output, L=result.length, backend=result.backend)
    return EXIT_OK


def cmd_subseq(args) -> int:
    x, y = _load_pair(args)
    result = lcs_reconstruct(x, y, memory_cap=args.memory_cap)
    if not validate_common_subsequence(result.subsequence, x, y, result.length):
        raise RuntimeError("reconstructed subsequence failed validation")
    rendered = _render_tokens(result.subsequence, args.mode)
    _emit(result.stats, args.output, [f"L = {result.length}", rendered],
          L=result.length, backend=result.backend, subsequence=rendered)
    return EXIT_OK


def cmd_stats(args) -> int:
    x, y = _load_pair(args)
    stats = _count(x, y, "auto")[0]  # R as `length` counts it, and no kernel's index
    _emit(stats, args.output, distinct_symbols=len(set(x.symbols) | set(y.symbols)))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .shadow import DEFAULT_SHADOW_LIMIT, InvariantViolation, shadow_run

    x, y = _load_pair(args)
    oracle = int(dp_oracle(x, y)[len(x)][len(y)])  # first: above its cap nothing else runs
    auto = lcs_length(x, y)
    lengths = {"auto": auto.length}
    counts = {"auto": auto.stats.r}
    names = (*KERNEL_NAMES, *BACKEND_NAMES)  # both kernels by name too, whichever `auto` picks
    skipped = ""
    if auto.stats.r > VERIFY_SETS_MAX_R:
        names = KERNEL_NAMES
        skipped = f"({', '.join(BACKEND_NAMES)} skipped: R = {auto.stats.r} > {VERIFY_SETS_MAX_R})"
    for backend in names:
        res = lcs_length(x, y, backend=backend)
        lengths[backend] = res.length
        counts[backend] = res.stats.r
    lengths["dp_oracle"] = oracle
    failures = []
    for kernel in ("auto", *KERNEL_NAMES):  # the names its length side runs
        try:
            recon = lcs_reconstruct(x, y, memory_cap=args.memory_cap, backend=kernel)
        except RuntimeError as exc:
            failures.append(f"reconstruction[{kernel}]: {exc}")
        else:
            lengths[f"reconstruct[{kernel}]"] = recon.length
            counts[f"reconstruct[{kernel}]"] = recon.stats.r
            if not validate_common_subsequence(recon.subsequence, x, y, oracle):
                failures.append(f"reconstruction[{kernel}]: subsequence failed the structural check")
    if len(set(lengths.values())) > 1:
        failures.append(f"length disagreement: {lengths}")
    if len(set(counts.values())) > 1:
        failures.append(f"match count disagreement: {counts}")
    if len(x) <= DEFAULT_SHADOW_LIMIT and len(y) <= DEFAULT_SHADOW_LIMIT:
        try:
            shadow_run(x, y)
        except InvariantViolation as exc:
            failures.append(f"shadow invariant violation: {exc}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        if skipped:
            print(skipped, file=sys.stderr)
        return EXIT_MISMATCH
    print(f"ok: all backends agree, L = {oracle}" + (f" {skipped}" if skipped else ""))
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import bench as bench_mod

    cases = bench_mod.default_cases(
        n=args.n,
        sigma=args.sigma,
        seed=args.seed,
        structure=args.structure,
        backends=args.backend,
    )
    records = bench_mod.run_bench(cases, repeats=args.repeats)
    fmt = "json" if args.output == "json" else "csv"
    sys.stdout.write(bench_mod.emit_report(records, fmt))
    if fmt == "json":
        sys.stdout.write("\n")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _bench_backends(text: str) -> tuple[str, ...]:
    names = tuple(text.split(","))
    if not set(names) <= set(BENCH_BACKENDS):
        raise argparse.ArgumentTypeError(f"{text!r} has an item not in {BENCH_BACKENDS}")
    return names


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``lcseq`` parser and its subcommands' parsers by name, built once per process."""
    parser = argparse.ArgumentParser(
        prog="lcseq",
        description="Longest common subsequence via threshold sets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    subparsers = {}

    def add_inputs(p):
        p.add_argument("inputs", nargs=2, metavar="INPUT",
                       help="two file paths ('-' = stdin, first input only)")
        p.add_argument("--mode", choices=MODES, default="bytes")

    def add_output(p):
        p.add_argument("--output", choices=("text", "json"), default="text")

    def add_memory_cap(p):
        p.add_argument("--memory-cap", type=_non_negative_int, default=DEFAULT_TRACE_CAP,
                       dest="memory_cap",
                       help="most matches R that reconstruction takes on, checked before "
                            "any work (exit 3 above it); within it the bisect trace holds "
                            "2(R+1) list slots (S and its occupants add 2(L+1)) and "
                            "the bitpar rows fewer than "
                            f"{BITPAR_WORDS_PER_MATCH}R 64-bit words ({BITPAR_WORDS_PER_MATCH} "
                            "times the cap where verify names bitpar, else exit 3)")

    p = subparsers["length"] = sub.add_parser("length", help="LCS length")
    add_inputs(p)
    add_output(p)
    p.add_argument("--backend", choices=LENGTH_BACKENDS, default="auto")
    p.set_defaults(func=cmd_length)

    p = subparsers["subseq"] = sub.add_parser("subseq", help="print one LCS")
    add_inputs(p)
    add_output(p)
    add_memory_cap(p)
    p.set_defaults(func=cmd_subseq)

    p = subparsers["stats"] = sub.add_parser("stats", help="sequence and match statistics")
    add_inputs(p)
    add_output(p)
    p.set_defaults(func=cmd_stats)

    p = subparsers["verify"] = sub.add_parser("verify",
                                              help="cross-check all backends and invariants")
    add_inputs(p)
    add_memory_cap(p)
    p.set_defaults(func=cmd_verify)

    p = subparsers["bench"] = sub.add_parser("bench", help="run the benchmark suite")
    add_output(p)
    p.add_argument("--n", type=_positive_int, default=128)
    p.add_argument("--sigma", type=_positive_int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--structure", choices=STRUCTURES,
                   default="uniform_random")
    p.add_argument("--repeats", type=_positive_int, default=3)
    p.add_argument("--backend", type=_bench_backends, default=",".join(BACKEND_NAMES))
    p.set_defaults(func=cmd_bench)
    return parser, subparsers


def build_parser() -> argparse.ArgumentParser:
    """The ``lcseq`` parser, built once per process; parsing leaves it unchanged."""
    return _parsers()[0]


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, run through one subcommand's parser where it can."""
    parser, subparsers = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in subparsers:
        args, rest = subparsers[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.subcommand = argv[0]
            return args
    return parser.parse_args(argv)  # its help, its errors, and what it does with leftovers


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        if sys.stdout is None:  # fd 1 closed at start-up: print would drop every line
            raise OSError("standard output is closed")
        return args.func(args)
    except MemoryError as exc:  # the trace and dense-table caps, or a failed allocation
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (OSError, UnicodeEncodeError, ImportError) as exc:  # unreadable input, unencodable output, no numpy
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # a failed self-check: bench disagreement, short or invalid LCS
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
