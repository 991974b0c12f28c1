import random
import tracemalloc
from itertools import accumulate

import pytest

import lcseq.core
from lcseq.core import dp_oracle
from lcseq.matching import Sequence
from lcseq.shadow import DEFAULT_SHADOW_LIMIT, InvariantViolation, ShadowTracker, shadow_run

from helpers import from_text


def worked_example_tracker() -> ShadowTracker:
    """The worked example's S = (2, 3), Q = (0, 1, 2, 2, 2, 2, 2), by the matches (1, 2) and (2, 3)."""
    tracker = ShadowTracker(7)
    for i, j in ((1, 2), (2, 3)):
        tracker.ts.begin_row()
        tracker.apply_match(i, j)
    return tracker


def test_prefix_max_pairing():
    """After every ``apply_match`` of a real row sweep, Q is the prefix maximum of H."""
    rng = random.Random(31)
    x = Sequence(tuple(rng.randrange(3) for _ in range(30)))
    y = Sequence(tuple(rng.randrange(3) for _ in range(20)))
    tracker = ShadowTracker(len(y))
    for i, sym in enumerate(x.symbols, start=1):
        tracker.ts.begin_row()
        for j in range(len(y), 0, -1):  # a row's matches arrive right to left
            if y.symbols[j - 1] == sym:
                tracker.apply_match(i, j)
                assert tracker.q[1:] == list(accumulate(tracker.h[1:], max)), (i, j)
    assert tracker.q[-1] == int(dp_oracle(x, y)[len(x)][len(y)])


def test_break_points_from_seeded_state():
    tracker = worked_example_tracker()
    assert tracker.ts.contents() == [2, 3]
    assert tracker.q_from_contents()[1:] == [0, 1, 2, 2, 2, 2, 2]


def test_golden_single_match():
    tracker = worked_example_tracker()
    tracker.ts.begin_row()
    t = tracker.apply_match(4, 6)
    assert t == 3
    assert tracker.q[1:] == [0, 1, 2, 2, 2, 3, 3]
    assert tracker.ts.contents() == [2, 3, 6]


def test_shadow_run_examples():
    snaps = shadow_run(from_text("abcbdab"), from_text("bdcaba"))
    assert len(snaps) == 7
    final = snaps[-1]
    assert len(final.contents) == 4
    assert final.q[-1] == 4


def test_shadow_matches_dp_prefixes():
    rng = random.Random(6)
    for _ in range(25):
        m, n = rng.randint(0, 40), rng.randint(1, 40)
        x = Sequence(tuple(rng.randrange(3) for _ in range(m)))
        y = Sequence(tuple(rng.randrange(3) for _ in range(n)))
        snaps = shadow_run(x, y)
        table = dp_oracle(x, y)
        for i, snap in enumerate(snaps, start=1):
            # Q(j) after row i equals the LCS length of X[1:i] vs Y[1:j]
            assert list(snap.q) == [int(table[i][j]) for j in range(1, n + 1)]


def test_shadow_t_values_match_dp():
    rng = random.Random(16)
    for _ in range(15):
        x = Sequence(tuple(rng.randrange(3) for _ in range(20)))
        y = Sequence(tuple(rng.randrange(3) for _ in range(20)))
        snaps = shadow_run(x, y)
        if not snaps:
            continue
        table = dp_oracle(x, y)
        t_values = {}
        for snap in snaps:
            assert all(i == snap.row for i, _ in snap.t_values)
            t_values.update(snap.t_values)
        matches = {(i, j) for i in range(1, 21) for j in range(1, 21)
                   if x.symbols[i - 1] == y.symbols[j - 1]}
        assert set(t_values) == matches
        for (i, j), t in t_values.items():
            assert x.symbols[i - 1] == y.symbols[j - 1]
            assert t == int(table[i][j])


def test_shadow_run_takes_the_planners_lists(monkeypatch):
    """``shadow_run`` sweeps the position lists that ``_plan`` builds, once, and builds none of its own."""
    calls = []
    build = lcseq.core.build_position_lists

    def counted(y):
        calls.append(y)
        return build(y)

    monkeypatch.setattr(lcseq.core, "build_position_lists", counted)
    rng = random.Random(20)
    x = Sequence(tuple(rng.randrange(4) for _ in range(20)))
    y = Sequence(tuple(rng.randrange(4) for _ in range(20)))
    snaps = shadow_run(x, y)
    assert calls == [y]
    assert snaps[-1].q[-1] == int(dp_oracle(x, y)[20][20])


def test_shadow_run_memory_is_not_per_row_cumulative():
    # one symbol: every cell matches, R = 128 * 128; snapshots that each
    # copied every T value so far would hold about 42 MiB here
    x = Sequence((0,) * 128)
    tracemalloc.start()
    try:
        snaps = shadow_run(x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert sum(len(snap.t_values) for snap in snaps) == 128 * 128


def test_check_row_detects_corruption():
    tracker = worked_example_tracker()
    tracker.q[5] = 9
    with pytest.raises(InvariantViolation) as exc:
        tracker.check_row(1, None)
    assert exc.value.row == 1


def test_check_row_detects_q_step_above_one():
    tracker = worked_example_tracker()
    # Q stays the prefix maximum of H, but steps by 2 at column 5
    tracker.h[5] = 4
    tracker.q[5:8] = [4, 4, 4]
    with pytest.raises(InvariantViolation) as exc:
        tracker.check_row(1, None)
    assert (exc.value.what, exc.value.column, exc.value.actual) == ("Q step outside {0,1}", 5, 2)


def test_check_row_detects_h_decrease():
    tracker = worked_example_tracker()
    with pytest.raises(InvariantViolation) as exc:
        tracker.check_row(1, [0, 9, 0, 0, 0, 0, 0, 0])
    assert (exc.value.what, exc.value.column) == ("H decreased across rows", 1)
    assert (exc.value.expected, exc.value.actual) == (9, 0)


def test_check_row_detects_set_divergence():
    ahead = worked_example_tracker()
    ahead.ts.update(5)  # the set gains a member, the dense state does not
    behind = worked_example_tracker()
    behind.ts.tree.items.pop()  # the set loses its last member, the dense state does not
    for tracker in (ahead, behind):
        with pytest.raises(InvariantViolation) as exc:
            tracker.check_row(1, None)
        assert exc.value.what == "set-derived Q != dense Q"


def test_shadow_size_limit():
    at_limit = Sequence(tuple([0] * DEFAULT_SHADOW_LIMIT))
    assert len(shadow_run(at_limit, at_limit)) == DEFAULT_SHADOW_LIMIT
    for size in (DEFAULT_SHADOW_LIMIT + 1, 300):
        big = Sequence(tuple([0] * size))
        with pytest.raises(ValueError, match="shadow mode is capped at 256x256"):
            shadow_run(big, big)


def test_column_out_of_range():
    tracker = ShadowTracker(4)
    with pytest.raises(ValueError, match=r"^match \(1, 5\): column 5 outside 1\.\.4$"):
        tracker.apply_match(1, 5)
