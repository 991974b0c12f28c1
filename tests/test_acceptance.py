"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a PASS line on
success (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  Criteria 5 and 6 audit the instance corpus produced for
criterion 2, so they share one module-scoped run.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass

import pytest

from lcseq import bst
from lcseq.bst import AvlTree
from lcseq.core import (
    KERNEL_NAMES,
    OpCounters,
    _match_rows,
    dp_oracle,
    lcs_length,
    lcs_reconstruct,
    validate_common_subsequence,
)
from lcseq.matching import Sequence, build_position_lists
from lcseq.shadow import ShadowTracker, shadow_run
from lcseq.threshold import VebBackend, make_threshold_set
from lcseq.veb import VebTree

from helpers import CountedKey, SortedSetOracle, run_cli_with_literal_guard


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


def _corpus_pairs():
    """The 1000 seeded (x, y) pairs of criterion 2's corpus, in order."""
    rng = random.Random(20250823)
    sigmas = (2, 4, 26)
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
        yield x, y


@pytest.fixture(scope="module")
def random_corpus():
    audits = []
    start = time.perf_counter()
    for idx, (x, y) in enumerate(_corpus_pairs()):
        m, n = len(x), len(y)
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
    # the worked example's state before the (4, 6) match, reached by real matches
    tracker = ShadowTracker(7)
    for i, j in ((1, 2), (2, 3)):
        tracker.ts.begin_row()
        tracker.apply_match(i, j)
    assert tracker.q[1:] == [0, 1, 2, 2, 2, 2, 2]
    assert tracker.ts.contents() == [2, 3]
    tracker.ts.begin_row()
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


# -- the paper's per-operation bounds, counted over the corpus ----------

# c in each bound of the test below, read from the whole corpus: the largest
# count less its log term, rounded up (the AVL insert's is 0.35)
_VEB_EXCESS = {"successor": 1, "insert": 1, "delete": 4}
_AVL_EXCESS = {"successor": 0, "insert": 1, "delete": 0}


def test_corpus_work_per_tree_operation():
    """Criterion 2's update streams through the named vEB and AVL sets, each primitive counted.

    Every match (i, j) is one ``update(j)``: a successor, at most one
    delete and an insert on the set's tree.  Wrappers patched here count,
    per public call, the vEB tree's calls of ``_succ``, ``_insert`` and
    ``_delete``, and the nodes the AVL tree visits: a successor's key
    comparisons (one per node on its path; the keys are ``CountedKey``s),
    and an insert's or delete's calls of ``_insert``, ``_delete`` and
    ``_pop_min`` (one per node, plus the empty link where an insert ends).
    On each instance the largest count per primitive is at most
    ceil(log2 log2 u) + c for the vEB tree, u its universe, and
    1.45 log2(L + 2) + c for the AVL tree, with the c of ``_VEB_EXCESS``
    and ``_AVL_EXCESS``; over the instances it comes within 1 of it.

    Every tenth instance is replayed (100 of the 1000, R = 159 850 in
    all, the first one at m = n = 200), which keeps the counted replay
    to about 4 s; the whole corpus gives the same c.
    """
    count = 0
    most = {}  # primitive -> this instance's largest count

    def counting(method):
        def counted(*args):
            nonlocal count
            count += 1
            return method(*args)
        return counted

    def per_call(primitive, method, compared):
        def measured(self, key):
            nonlocal count
            count = CountedKey.compared = 0
            result = method(self, key)
            value = CountedKey.compared if compared else count
            most[primitive] = max(most.get(primitive, 0), value)
            return result
        return measured

    excess = {}  # (backend, primitive) -> the largest count less its log term
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_succ", "_insert", "_delete"):
            patch.setattr(VebTree, name, counting(getattr(VebTree, name)))
        for name in ("_insert", "_delete"):
            patch.setattr(AvlTree, name, counting(getattr(AvlTree, name)))
        patch.setattr(bst, "_pop_min", counting(bst._pop_min))
        for cls in (VebTree, AvlTree):
            for primitive in ("successor", "insert", "delete"):
                compared = cls is AvlTree and primitive == "successor"
                patch.setattr(cls, primitive, per_call(primitive, getattr(cls, primitive), compared))
        for x, y in itertools.islice(_corpus_pairs(), 0, None, 10):
            rows = list(_match_rows(x, build_position_lists(y).lists))  # the driver's updates
            for backend, bound in (("veb", _VEB_EXCESS), ("tree", _AVL_EXCESS)):
                ts = make_threshold_set(max(len(y), 1), backend)
                most.clear()
                for row in rows:
                    for j in row:
                        ts.update(CountedKey(j))
                if backend == "veb":  # ceil(log2 b) for u = 2**b
                    log_term = (ts.tree.universe_bound.bit_length() - 2).bit_length()
                else:
                    log_term = 1.45 * math.log2(ts.size() + 2)
                for primitive, value in most.items():
                    assert value <= log_term + bound[primitive], (backend, primitive, value)
                    key = (backend, primitive)
                    excess[key] = max(excess.get(key, -math.inf), value - log_term)
    for (backend, primitive), value in excess.items():
        bound = (_VEB_EXCESS if backend == "veb" else _AVL_EXCESS)[primitive]
        assert value > bound - 1, (backend, primitive, value)
    assert len(excess) == 6, excess


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
