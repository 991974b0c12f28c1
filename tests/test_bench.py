import csv
import io
import json
import math
import subprocess
import sys
import warnings

import pytest

from lcseq import bench
from lcseq.core import DpCapError, lcs_length
from lcseq.matching import build_position_lists, count_matches
from lcseq.threshold import TreeBackend


def test_gen_sequence_deterministic():
    a = bench.gen_sequence(8, 2, 1, "uniform_random")
    b = bench.gen_sequence(8, 2, 1, "uniform_random")
    assert a.symbols == b.symbols
    c = bench.gen_sequence(8, 2, 2, "uniform_random")
    assert len(c) == 8


def test_gen_sequence_sigma_one_forces_full_match():
    x = bench.gen_sequence(8, 1, 123, "uniform_random")
    assert set(x.symbols) == {0}
    pl = build_position_lists(x)
    assert count_matches(x, pl).r == 64
    assert lcs_length(x, x).length == 8


def test_gen_sequence_r_concentration():
    n, sigma = 100, 26
    expected = n * n / sigma
    tol = 5 * math.sqrt(expected)
    for seed in range(100):
        case = bench.BenchCase("c", n, n, sigma, seed)
        x, y = bench.gen_pair(case)
        r = count_matches(x, build_position_lists(y)).r
        assert expected - tol <= r <= expected + tol


def test_gen_sequence_validation():
    with pytest.raises(ValueError):
        bench.gen_sequence(8, 0, 1, "uniform_random")
    with pytest.raises(ValueError):
        bench.gen_sequence(8, 2, 1, "sawtooth")
    with pytest.raises(ValueError):
        bench.BenchCase("c", 8, 8, 2, 1, structure="sawtooth")


def test_near_identical_has_long_lcs():
    case = bench.BenchCase("c", 200, 200, 4, 3, structure="near_identical")
    x, y = bench.gen_pair(case)
    assert lcs_length(x, y).length >= 0.85 * 200


def test_repeated_block_maximizes_matches():
    case = bench.BenchCase("c", 100, 100, 26, 5, structure="repeated_block")
    x, y = bench.gen_pair(case)
    r = count_matches(x, build_position_lists(y)).r
    assert r >= 100 * 100 / 8  # few distinct symbols -> dense match set


def test_r_quadruples_when_n_doubles():
    for seed in range(5):
        rs = []
        for n in (256, 512):
            case = bench.BenchCase("c", n, n, 2, seed)
            x, y = bench.gen_pair(case)
            rs.append(count_matches(x, build_position_lists(y)).r)
        ratio = rs[1] / rs[0]
        assert 4 * 0.8 <= ratio <= 4 * 1.2


def test_run_bench_agreement_and_counters():
    cases = bench.default_cases(n=64, sigma=4, seed=1,
                                backends=("veb", "tree", "array", "dp_oracle"))
    records = bench.run_bench(cases, repeats=2)
    by_case = {}
    for rec in records:
        by_case.setdefault(rec.case_id, []).append(rec)
    for recs in by_case.values():
        assert len({r.L for r in recs}) == 1
        assert len({r.R for r in recs}) == 1
        for r in recs:
            total = r.ops_succ + r.ops_pred + r.ops_insert + r.ops_delete
            if r.backend == "veb":
                assert total <= 4 * r.R + 2
            if r.backend != "dp_oracle":
                assert r.ops_update == r.R


def test_tree_backend_depth_bound_in_driver():
    case = bench.BenchCase("c", 256, 256, 2, 9)
    x, y = bench.gen_pair(case)
    pl = build_position_lists(y)
    ts = TreeBackend(len(y))
    max_height = 0
    for sym in x.symbols:
        for j in pl.positions(sym):
            ts.update(j)
            max_height = max(max_height, ts.tree.height)
    size = ts.size()
    assert max_height <= 2 * math.log2(size + 2) + 2


def test_array_aggregate_comparison_bound():
    case = bench.BenchCase("c", 200, 200, 2, 13)
    x, y = bench.gen_pair(case)
    res = lcs_length(x, y, backend="array")
    total = sum(rc.comparisons for rc in res.row_costs)
    m = len(x)
    assert total <= m * res.length + res.stats.r + m


_NUMPY_PROBE = """\
import sys
from lcseq import bench
seen = []
oracle = bench.dp_oracle
def probe(x, y):
    seen.append("numpy" in sys.modules)
    return oracle(x, y)
bench.dp_oracle = probe
bench.run_bench([bench.BenchCase("c", 8, 8, 2, 0, backends=("dp_oracle",))], repeats=1)
print(seen)
"""


def test_run_bench_loads_numpy_before_timing_the_oracle():
    # dp_oracle imports numpy lazily; a timed call must not include that import
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE], capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"[True]"


def test_run_bench_disagreement_aborts(monkeypatch):
    import lcseq.bench as bench_mod

    real = bench_mod.lcs_length

    def broken(x, y, backend="veb", position_lists=None):
        res = real(x, y, backend=backend, position_lists=position_lists)
        if backend == "tree":
            res.length += 1
        return res

    monkeypatch.setattr(bench_mod, "lcs_length", broken)
    cases = bench.default_cases(n=16, sigma=2, seed=0)
    with pytest.raises(bench.BenchDisagreement):
        bench.run_bench(cases, repeats=1)


def test_run_bench_checks_every_dense_cap_before_any_case(monkeypatch):
    # the third case, n = 8400, is over the oracle's 2^26 cells: nothing runs
    def never(*args, **kwargs):
        raise AssertionError("lcs_length ran before the cap check")

    monkeypatch.setattr(bench, "lcs_length", never)
    cases = bench.default_cases(n=4200, sigma=16, backends=("veb", "dp_oracle"))
    with pytest.raises(DpCapError):
        bench.run_bench(cases, repeats=1)


def test_emit_report_csv():
    assert bench.emit_report([], "csv") == ",".join(bench.REPORT_COLUMNS) + "\n"
    cases = [bench.BenchCase("only", 32, 32, 2, 0, backends=("veb", "array"))]
    records = bench.run_bench(cases, repeats=1)
    out = bench.emit_report(records, "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert rows[0]["backend"] == "veb" and rows[1]["backend"] == "array"


def test_emit_report_json_round_trip():
    cases = [bench.BenchCase("only", 32, 32, 2, 0, backends=("veb",))]
    records = bench.run_bench(cases, repeats=1)
    parsed = json.loads(bench.emit_report(records, "json"))
    assert [bench.BenchRecord(**item) for item in parsed] == records


def test_emit_report_unknown_format():
    with pytest.raises(ValueError):
        bench.emit_report([], "xml")


def test_wall_time_trend_advisory():
    """Advisory only: time per doubling should stay within 6x; warn, never fail."""
    cases = [
        bench.BenchCase(f"t{n}", n, n, 2, 0, backends=("veb",))
        for n in (128, 256)
    ]
    records = bench.run_bench(cases, repeats=3)
    t0, t1 = records[0].time_ns, records[1].time_ns
    if t0 > 0 and t1 / t0 > 6:
        warnings.warn(
            f"advisory: veb time grew {t1 / t0:.1f}x per doubling (limit 6x)"
        )
