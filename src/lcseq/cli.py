"""Command-line interface: length, subseq, stats, verify, bench.

Exit codes: 0 success, 1 verification mismatch or failed self-check,
2 usage or I/O error (output the stdout encoding cannot write included),
3 resource cap exceeded.

``length`` and ``subseq`` load only this module, ``core`` and
``matching``, and none of ``threshold``, ``dataclasses``, ``json`` or
``typing``: ``json`` is imported only to write ``--output json``, and
``verify`` and ``bench`` import the shadow checker and the benchmark
harness when they run.
``main`` builds the parser on its first call and reuses it for the rest
of the process.
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
    DpCapError,
    ReconstructionCapError,
    dp_oracle,
    lcs_length,
    lcs_reconstruct,
    validate_common_subsequence,
)
from .matching import MODES, Sequence, build_position_lists, count_matches, tokenize

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _read_input(path: str, allow_stdin: bool) -> bytes:
    if path == "-":
        if not allow_stdin:
            raise OSError("'-' (standard input) is only allowed for the first input")
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _load_pair(args) -> tuple[Sequence, Sequence]:
    x = tokenize(_read_input(args.inputs[0], allow_stdin=True), args.mode)
    y = tokenize(_read_input(args.inputs[1], allow_stdin=False), args.mode)
    return x, y


def _emit(payload: dict, output: str, text_lines: list[str]) -> None:
    if output == "json":
        import json

        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _render_tokens(tokens, mode: str) -> str:
    # a line token holds no line break, so no UTF-8 sequence spans two lines
    if mode == "lines":
        return b"\n".join(tokens).decode("utf-8", "replace")
    return bytes(tokens).decode("latin-1")


def cmd_length(args) -> int:
    x, y = _load_pair(args)
    result = lcs_length(x, y, backend=args.backend)
    payload = {
        "m": len(x),
        "n": len(y),
        "R": result.stats.r,
        "L": result.length,
        "backend": result.backend,
    }
    _emit(payload, args.output, [f"{k} = {v}" for k, v in payload.items()])
    return EXIT_OK


def cmd_subseq(args) -> int:
    x, y = _load_pair(args)
    result = lcs_reconstruct(x, y, memory_cap=args.memory_cap)
    if not validate_common_subsequence(result.subsequence, x, y, result.length):
        raise RuntimeError("reconstructed subsequence failed validation")
    rendered = _render_tokens(result.subsequence, args.mode)
    payload = {
        "m": len(x),
        "n": len(y),
        "R": result.stats.r,
        "L": result.length,
        "backend": result.backend,
        "subsequence": rendered,
    }
    _emit(payload, args.output, [f"L = {result.length}", rendered])
    return EXIT_OK


def cmd_stats(args) -> int:
    x, y = _load_pair(args)
    pl = build_position_lists(y)
    stats = count_matches(x, pl)
    payload = {
        "m": len(x),
        "n": len(y),
        "R": stats.r,
        "distinct_symbols": len(set(x.symbols) | set(y.symbols)),
    }
    _emit(payload, args.output, [f"{k} = {v}" for k, v in payload.items()])
    return EXIT_OK


def cmd_verify(args) -> int:
    from .shadow import DEFAULT_SHADOW_LIMIT, InvariantViolation, shadow_run

    x, y = _load_pair(args)
    oracle = int(dp_oracle(x, y)[len(x)][len(y)])  # first: above its cap nothing else runs
    # both kernels by name as well, whichever `auto` picks
    lengths = {backend: lcs_length(x, y, backend=backend).length for backend in LENGTH_BACKENDS}
    lengths["dp_oracle"] = oracle
    failures = []
    for kernel in KERNEL_NAMES:
        try:
            recon = lcs_reconstruct(x, y, memory_cap=args.memory_cap, backend=kernel)
        except RuntimeError as exc:
            failures.append(f"reconstruction[{kernel}]: {exc}")
        else:
            lengths[f"reconstruct[{kernel}]"] = recon.length
            if not validate_common_subsequence(recon.subsequence, x, y, oracle):
                failures.append(f"reconstruction[{kernel}]: subsequence failed the structural check")
    if len(set(lengths.values())) > 1:
        failures.append(f"length disagreement: {lengths}")
    if len(x) <= DEFAULT_SHADOW_LIMIT and len(y) <= DEFAULT_SHADOW_LIMIT:
        try:
            shadow_run(x, y)
        except InvariantViolation as exc:
            failures.append(f"shadow invariant violation: {exc}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"ok: all backends agree, L = {oracle}")
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
def build_parser() -> argparse.ArgumentParser:
    """The ``lcseq`` parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lcseq",
        description="Longest common subsequence via threshold sets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

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
                            "2(R+1) list slots and the bitpar rows fewer than "
                            f"{BITPAR_WORDS_PER_MATCH}R 64-bit words ({BITPAR_WORDS_PER_MATCH} "
                            "times the cap where verify names bitpar, else exit 3)")

    p = sub.add_parser("length", help="LCS length")
    add_inputs(p)
    add_output(p)
    p.add_argument("--backend", choices=LENGTH_BACKENDS, default="auto")
    p.set_defaults(func=cmd_length)

    p = sub.add_parser("subseq", help="print one LCS")
    add_inputs(p)
    add_output(p)
    add_memory_cap(p)
    p.set_defaults(func=cmd_subseq)

    p = sub.add_parser("stats", help="sequence and match statistics")
    add_inputs(p)
    add_output(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="cross-check all backends and invariants")
    add_inputs(p)
    add_memory_cap(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run the benchmark suite")
    add_output(p)
    p.add_argument("--n", type=_positive_int, default=128)
    p.add_argument("--sigma", type=_positive_int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--structure", choices=STRUCTURES,
                   default="uniform_random")
    p.add_argument("--repeats", type=_positive_int, default=3)
    p.add_argument("--backend", type=_bench_backends, default=",".join(BACKEND_NAMES))
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReconstructionCapError, DpCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (OSError, UnicodeEncodeError) as exc:  # unreadable input, unencodable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # a failed self-check: bench disagreement, short LCS, 4R ops
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
