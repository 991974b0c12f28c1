"""One CLI job in process, and the tally that checks every answer."""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter_ns

import check
from lcseq.cli import main as lcseq_main


def argv(kind: str, pair) -> list[str]:
    return [kind, str(pair.a), str(pair.b), "--mode", pair.mode]


def run_cli(args: list[str]) -> tuple[int, str, str | None]:
    """Run `lcseq <args>` through `lcseq.cli.main`, stdout captured.

    Returns (elapsed ns, stdout, error or None). A nonzero exit or an
    exception is an error; neither escapes.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter_ns()
        try:
            rc = lcseq_main(args)
        except (Exception, SystemExit) as exc:  # a failed job must not end the run
            return perf_counter_ns() - t0, out.getvalue(), f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter_ns() - t0
    if rc != 0:
        return elapsed, out.getvalue(), f"exit {rc}: {err.getvalue().strip()[:200]}"
    return elapsed, out.getvalue(), None


class Checker:
    """Counts jobs and checks each answer.

    A job fails on an error, unparsable output, an invalid subsequence,
    or an L that differs from the reference. L is compared in `finish`,
    so the reference can be computed after the timed loop. Identical
    `subseq` outputs for the same pair are validated once.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: dict[int, str] = {}
        self._claims: list[tuple[int, int, int, str]] = []
        self._verdicts: dict[tuple[int, bytes], tuple[str | None, int]] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def _job(self) -> int:
        self.attempted += 1
        return self.attempted

    def fail(self, job: int, message: str) -> None:
        self.failures.setdefault(job, message)

    def check(self, ok: bool, message: str) -> None:
        """Count one check; a false `ok` is a failure."""
        job = self._job()
        if not ok:
            self.fail(job, message)

    def claim(self, pair, length: int, what: str) -> None:
        """Record a job that reported `length` for `pair`; checked in `finish`."""
        self._claims.append((self._job(), pair.index, length, what))

    def length(self, pair, out: str, error: str | None) -> str | None:
        """Check a `length` job; returns the backend it reported."""
        if error is None:
            try:
                length, backend = check.parse_length(out)
            except (KeyError, ValueError) as exc:
                error = f"unparsable length output: {exc}"
            else:
                self.claim(pair, length, "length")
                return backend
        self.fail(self._job(), f"length pair {pair.index}: {error}")
        return None

    def subseq(self, pair, out: str, error: str | None) -> None:
        if error is None:
            key = (pair.index, hashlib.blake2b(out.encode()).digest())
            if key not in self._verdicts:
                self._verdicts[key] = self._validate(pair, out)
            error, length = self._verdicts[key]
            if error is None:
                self.claim(pair, length, "subseq")
                return
        self.fail(self._job(), f"subseq pair {pair.index}: {error}")

    @staticmethod
    def _validate(pair, out: str) -> tuple[str | None, int]:
        try:
            length, lcs = check.parse_subseq(out, pair.mode)
        except ValueError as exc:
            return f"unparsable subseq output: {exc}", -1
        if len(lcs) != length:
            return f"printed LCS has {len(lcs)} tokens, L = {length}", length
        x, y = pair.load()
        if not (check.is_subsequence(lcs, x) and check.is_subsequence(lcs, y)):
            return "printed LCS is not a common subsequence", length
        return None, length

    def finish(self, refs: dict[int, int]) -> None:
        """Compare every claimed L with the reference L of its pair."""
        for job, index, length, what in self._claims:
            if length != refs.get(index):
                self.fail(job, f"{what} pair {index}: L = {length}, reference {refs.get(index)}")
        self._claims.clear()
