"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a PASS line on
success (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  Criteria 5 and 6 audit the instance corpus produced for
criterion 2, so they share one module-scoped run.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass

import pytest

from lcseq.core import (
    KERNEL_NAMES,
    OpCounters,
    dp_oracle,
    lcs_length,
    lcs_reconstruct,
    validate_common_subsequence,
)
from lcseq.matching import Sequence
from lcseq.shadow import ShadowTracker, shadow_run
from lcseq.threshold import VebBackend
from lcseq.veb import VebTree

from helpers import SortedSetOracle, run_cli_with_literal_guard


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {criterion}: PASS ({detail})")


# -- criterion 1: exhaustive oracle equivalence -------------------------


def _all_strings(alphabet, max_len):
    return [
        Sequence(s)
        for length in range(max_len + 1)
        for s in itertools.product(alphabet, repeat=length)
    ]


def test_criterion_1_exhaustive_equivalence():
    start = time.perf_counter()
    pairs = 0
    for alphabet, max_len in (((0, 1), 6), ((0, 1, 2), 4)):
        strings = _all_strings(alphabet, max_len)
        for y in strings:
            for x in strings:
                expected = int(dp_oracle(x, y)[len(x)][len(y)])
                # the two kernels are checked as independent oracles too
                for backend in ("veb", "tree", "array", *KERNEL_NAMES):
                    res = lcs_length(x, y, backend=backend)
                    assert res.length == expected, (backend, x.symbols, y.symbols)
                pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"criterion 1 exceeded budget: {elapsed:.1f}s"
    report(1, f"{pairs} ordered pairs, {elapsed:.1f}s")


# -- criteria 2, 5, 6 share one randomized corpus -----------------------


@dataclass
class InstanceAudit:
    r: int
    l: int
    m: int
    veb_counters: OpCounters
    veb_calls: OpCounters
    row_costs: list


def _counted_veb_length(x, y):
    """``lcs_length(x, y, backend="veb")``, and the calls it made on its vEB tree and set."""
    calls = dict.fromkeys(("succ", "pred", "insert", "delete", "update"), 0)

    def counting(key, method):
        def counted(self, arg):
            calls[key] += 1
            return method(self, arg)
        return counted

    with pytest.MonkeyPatch.context() as patch:
        for key, cls, name in (("succ", VebTree, "successor"), ("pred", VebTree, "predecessor"),
                               ("insert", VebTree, "insert"), ("delete", VebTree, "delete"),
                               ("update", VebBackend, "update")):
            patch.setattr(cls, name, counting(key, getattr(cls, name)))
        res = lcs_length(x, y, backend="veb")
    return res, OpCounters(**calls)


@pytest.fixture(scope="module")
def random_corpus():
    rng = random.Random(20250823)
    sigmas = (2, 4, 26)
    audits = []
    start = time.perf_counter()
    for idx in range(1000):
        sigma = sigmas[idx % 3]
        # skewed draw keeps the 60 s budget; boundary length exercised too
        if idx < 12:
            m = n = 200
        else:
            m = int(201 * rng.random() ** 2)
            n = int(201 * rng.random() ** 2)
        x = Sequence(tuple(rng.randrange(sigma) for _ in range(m)))
        y = Sequence(tuple(rng.randrange(sigma) for _ in range(n)))
        expected = int(dp_oracle(x, y)[m][n])
        veb, veb_calls = _counted_veb_length(x, y)
        results = {"veb": veb}
        for backend in ("tree", "array", *KERNEL_NAMES):
            results[backend] = lcs_length(x, y, backend=backend)
        lengths = {backend: res.length for backend, res in results.items()}
        # both reconstruction paths, whichever `auto` would pick
        for kernel in KERNEL_NAMES:
            recon = lcs_reconstruct(x, y, backend=kernel)
            lengths[f"reconstruct[{kernel}]"] = recon.length
            assert validate_common_subsequence(recon.subsequence, x, y, expected), (idx, kernel)
        assert all(v == expected for v in lengths.values()), (idx, lengths, expected)
        audits.append(
            InstanceAudit(
                r=recon.stats.r,
                l=expected,
                m=m,
                veb_counters=results["veb"].counters,
                veb_calls=veb_calls,
                row_costs=results["array"].row_costs or [],
            )
        )
    elapsed = time.perf_counter() - start
    return audits, elapsed


def test_criterion_2_randomized_equivalence(random_corpus):
    audits, elapsed = random_corpus
    assert len(audits) == 1000
    assert elapsed < 60, f"criterion 2 exceeded budget: {elapsed:.1f}s"
    report(2, f"1000 pairs, {elapsed:.1f}s")


# -- criterion 3: published worked example ------------------------------


def test_criterion_3_golden_trace():
    tracker = ShadowTracker(7, seed_q=(0, 1, 2, 2, 2, 2, 2), seed_contents=(2, 3))
    t = tracker.apply_match(4, 6)
    assert t == 3
    assert tracker.q[1:] == [0, 1, 2, 2, 2, 3, 3]
    assert tracker.ts.contents() == [2, 3, 6]
    report(3, "T(4,6)=3, Q=(0,1,2,2,2,3,3), S=(2,3,6)")


# -- criterion 4: fact suite via shadow runs ----------------------------


def test_criterion_4_fact_suite():
    rng = random.Random(424242)
    start = time.perf_counter()
    for trial in range(200):
        sigma = rng.choice((2, 4, 8, 26))
        m, n = rng.randint(0, 128), rng.randint(1, 128)
        x = Sequence(tuple(rng.randrange(sigma) for _ in range(m)))
        y = Sequence(tuple(rng.randrange(sigma) for _ in range(n)))
        # shadow_run itself enforces Facts 3 and 4 and the S<->Q/P
        # agreements after every row; any violation raises
        snaps = shadow_run(x, y)
        table = dp_oracle(x, y)
        final_row = table[m]
        contents = list(snaps[-1].contents) if snaps else []
        assert len(contents) == int(final_row[n])
        for t, s_t in enumerate(contents, start=1):
            assert s_t == min(j for j in range(n + 1) if final_row[j] == t)
    report(4, f"200 instances, {time.perf_counter() - start:.1f}s")


# -- criteria 5 and 6: operation accounting -----------------------------


def test_criterion_5_veb_operation_accounting(random_corpus):
    # the calls counted on the vEB tree itself, not the counters derived from R and L
    audits, _ = random_corpus
    for audit in audits:
        c = audit.veb_calls
        assert c == audit.veb_counters
        assert c.update == audit.r
        assert c.succ + c.delete + c.insert + c.pred <= 4 * audit.r
        assert c.delete <= c.insert
    report(5, f"{len(audits)} instances, counted vEB calls equal the counters, ops <= 4R")


def test_criterion_6_array_comparison_accounting(random_corpus):
    audits, _ = random_corpus
    for audit in audits:
        total = 0
        for rc in audit.row_costs:
            assert rc.comparisons <= rc.alpha_start + rc.updates + 1
            total += rc.comparisons
        assert total <= audit.m * audit.l + audit.r + audit.m
    report(6, f"{len(audits)} instances, per-row and aggregate bounds hold")


# -- criterion 7: vEB randomized oracle ---------------------------------


def test_criterion_7_veb_oracle():
    universe = 1024
    rng = random.Random(777)
    tree = VebTree(universe)
    oracle = SortedSetOracle()
    start = time.perf_counter()
    for step in range(10_000):
        x = rng.randrange(universe)
        if rng.random() < 0.55:
            assert tree.insert(x) == oracle.insert(x)
        else:
            assert tree.delete(x) == oracle.delete(x)
        # after every mutation: cached extremes plus probed queries
        assert tree.min == oracle.min()
        assert tree.max == oracle.max()
        for probe in (x, rng.randrange(universe), rng.randrange(universe)):
            assert (probe in tree) == oracle.member(probe)
            assert tree.successor(probe) == oracle.successor(probe)
            assert tree.predecessor(probe) == oracle.predecessor(probe)
        if step % 500 == 0:
            for probe in range(universe):
                assert (probe in tree) == oracle.member(probe)
                assert tree.successor(probe) == oracle.successor(probe)
                assert tree.predecessor(probe) == oracle.predecessor(probe)
    report(7, f"10000 mutations, {time.perf_counter() - start:.1f}s")


# -- criterion 8: CLI end-to-end ----------------------------------------


CLI = [sys.executable, "-m", "lcseq.cli"]


def _run(*args):
    return subprocess.run(CLI + list(args), capture_output=True, timeout=120)


def test_criterion_8_cli_end_to_end(tmp_path):
    def pair(a: bytes, b: bytes):
        fa, fb = tmp_path / "a", tmp_path / "b"
        fa.write_bytes(a)
        fb.write_bytes(b)
        return str(fa), str(fb)

    # the three length examples
    fa, fb = pair(b"abcbdab", b"bdcaba")
    assert json.loads(_run("length", fa, fb, "--output", "json").stdout)["L"] == 4
    fa, fb = pair(b"", b"")
    assert json.loads(_run("length", fa, fb, "--output", "json").stdout)["L"] == 0
    fa, fb = pair(b"same text", b"same text")
    assert json.loads(_run("length", fa, fb, "--output", "json").stdout)["L"] == 9

    # exit-code contract: 0 / 1 / 2 / 3
    fa, fb = pair(b"abcbdab", b"bdcaba")
    assert _run("verify", fa, fb).returncode == 0
    wa, wb = pair(b"ab", b"ba")
    assert run_cli_with_literal_guard("verify", wa, wb).returncode == 1
    assert _run("length", str(tmp_path / "nope"), fb).returncode == 2
    ca, cb = pair(b"aaaa", b"aaaa")
    assert _run("subseq", ca, cb, "--memory-cap", "8").returncode == 3

    # verify exits 0 on 50 random pairs
    rng = random.Random(8888)
    for _ in range(50):
        a = bytes(rng.choice(b"abcd") for _ in range(rng.randint(0, 60)))
        b = bytes(rng.choice(b"abcd") for _ in range(rng.randint(0, 60)))
        fa, fb = pair(a, b)
        proc = _run("verify", fa, fb)
        assert proc.returncode == 0, proc.stderr
    report(8, "length examples, exit codes, 50 verified pairs")
