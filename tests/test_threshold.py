import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcseq.bst import AvlTree
from lcseq.threshold import (
    BACKEND_NAMES,
    ArrayBackend,
    RowCost,
    ThresholdSet,
    make_threshold_set,
)
from lcseq.veb import VebTree

from helpers import LiteralGuardVebBackend, reference_update

ALL_BACKENDS = list(BACKEND_NAMES)


def seeded(contents, capacity=7, backend="veb"):
    ts = make_threshold_set(capacity, backend)
    for v in contents:  # increasing contents seed as a run of appends
        ts.update(v)
    assert ts.contents() == list(contents)
    return ts


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_new_is_empty(backend):
    ts = make_threshold_set(7, backend)
    assert ts.size() == 0
    assert ts.contents() == []
    ts1 = make_threshold_set(1, backend)
    assert ts1.size() == 0 and ts1.capacity == 1


def test_make_threshold_set_takes_concrete_names():
    # each name builds its own structure; `auto` is the kernel in lcseq.core,
    # not a set, and there is no default set
    veb = make_threshold_set(8, "veb")
    assert type(veb) is ThresholdSet and type(veb.tree) is VebTree
    assert veb.tree.universe_bound > veb.capacity
    tree = make_threshold_set(8, "tree")
    assert type(tree) is ThresholdSet and type(tree.tree) is AvlTree
    assert isinstance(make_threshold_set(8, "array"), ArrayBackend)
    with pytest.raises(ValueError):
        make_threshold_set(8, "auto")
    with pytest.raises(TypeError):
        make_threshold_set(8)


def test_new_rejects_bad_capacity():
    # the set's own check, before any structure's: every name, and direct construction
    for capacity in (0, -1):
        message = f"capacity must be positive, got {capacity}"
        for backend in ALL_BACKENDS:
            with pytest.raises(ValueError, match=f"^{message}$"):
                make_threshold_set(capacity, backend)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ThresholdSet(capacity, AvlTree())
        with pytest.raises(ValueError, match=f"^{message}$"):
            ArrayBackend(capacity)
    with pytest.raises(ValueError):
        make_threshold_set(7, "skiplist")


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_size_examples(backend):
    assert seeded([2, 3, 6], backend=backend).size() == 3
    assert seeded([2, 3], backend=backend).size() == 2


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_succ_examples(backend):
    assert seeded([2, 3], backend=backend).succ(5) == 0
    ts = seeded([2, 3, 6], backend=backend)
    assert ts.succ(0) == 2
    assert ts.succ(3) == 6


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_pred_examples(backend):
    ts = seeded([2, 3, 6], backend=backend)
    assert ts.pred(6) == 3
    assert ts.pred(2) == 0
    assert ts.pred(4) == 3


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_max_examples(backend):
    assert make_threshold_set(7, backend).max() == 0
    assert seeded([2, 3, 6], backend=backend).max() == 6


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_update_returns_each_replaced_member(backend):
    # update's non-None returns are the literal rule's replacements, one for one
    rng = random.Random(2024)
    stream = [rng.randint(1, 50) for _ in range(500)]
    ref: list[int] = []
    expected = [y for y in (reference_update(ref, x) for x in stream) if y is not None]
    ts = make_threshold_set(50, backend)
    replaced = [y for y in map(ts.update, stream) if y is not None]
    assert replaced == expected
    assert ts.contents() == ref


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_update_examples(backend):
    ts = seeded([2, 3], backend=backend)
    assert ts.update(6) is None  # appended
    assert ts.contents() == [2, 3, 6]

    ts = seeded([2, 3, 6], backend=backend)
    assert ts.update(1) == 2
    assert ts.contents() == [1, 3, 6]

    ts = seeded([2, 3, 6], backend=backend)
    assert ts.update(3) == 3  # fixed point: succ(2) = 3 replaced by 3
    assert ts.contents() == [2, 3, 6]

    ts = make_threshold_set(7, backend)
    assert ts.update(4) is None
    assert ts.contents() == [4]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_contents_idempotent_fixed_point(backend):
    ts = make_threshold_set(7, backend)
    for _ in range(3):
        ts.update(5)
    assert ts.contents() == [5]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_domain_errors(backend):
    ts = make_threshold_set(7, backend)
    with pytest.raises(ValueError):
        ts.succ(8)
    with pytest.raises(ValueError):
        ts.pred(0)
    with pytest.raises(ValueError):
        ts.update(0)
    with pytest.raises(ValueError):
        ts.update(8)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_definition_conformance_random(backend):
    n = 256
    rng = random.Random(hash(backend) & 0xFFFF)
    ts = make_threshold_set(n, backend)
    ref: list[int] = []
    prev_size = 0
    for _ in range(3000):
        x = rng.randint(1, n)
        got = ts.update(x)
        expected = reference_update(ref, x)
        assert got == expected
        assert ts.contents() == ref
        size = ts.size()
        if got is None:
            assert size == prev_size + 1
        else:
            assert size == prev_size
            assert x <= got  # elements only move down or stay
        prev_size = size


def test_backend_equivalence():
    n = 200
    rng = random.Random(99)
    sets = [make_threshold_set(n, b) for b in ALL_BACKENDS]
    for _ in range(2000):
        x = rng.randint(1, n)
        results = [ts.update(x) for ts in sets]
        assert len(set(results)) == 1
        contents = [tuple(ts.contents()) for ts in sets]
        assert len(set(contents)) == 1


def test_contents_strictly_increasing_positive():
    n = 100
    rng = random.Random(5)
    for backend in ALL_BACKENDS:
        ts = make_threshold_set(n, backend)
        for _ in range(500):
            ts.update(rng.randint(1, n))
            c = ts.contents()
            assert all(a < b for a, b in zip(c, c[1:]))
            assert all(1 <= v <= n for v in c)


def test_appended_iff_beyond_max():
    n = 64
    rng = random.Random(11)
    ts = make_threshold_set(n, "veb")
    for _ in range(400):
        x = rng.randint(1, n)
        before = ts.contents()
        got = ts.update(x)
        if got is None:
            assert not before or x > before[-1]
        else:
            assert before and x <= before[-1]


def test_array_row_cost_bound():
    """With decreasing columns per row, comparisons <= alpha + updates + 1."""
    n = 128
    rng = random.Random(3)
    ts = make_threshold_set(n, "array")
    for _ in range(60):
        cols = sorted(rng.sample(range(1, n + 1), rng.randint(1, 20)), reverse=True)
        ts.begin_row()
        for j in cols:
            ts.update(j)
    for rc in ts.row_costs():
        assert rc.comparisons <= rc.alpha_start + rc.updates + 1


def test_array_row_cost_exact():
    # S = [2, 3, 6]; update(5) compares 6 then 3 and replaces 6; update(1)
    # resumes at 3, compares 3 then 2 and runs off the bottom: 2 + 2
    ts = seeded([2, 3, 6], backend="array")
    ts.begin_row()
    assert ts.update(5) == 6
    assert ts.update(1) == 2
    assert ts.contents() == [1, 3, 5]
    assert ts.row_costs()[-1] == RowCost(alpha_start=3, updates=2, comparisons=4)


def test_array_row_costs_pinned_on_mixed_stream():
    # three updates before any begin_row open a row (16 after 16 restarts
    # the scan); then rows of decreasing runs, each with out-of-order tails
    rng = random.Random(16)
    ops = [rng.randint(1, 30) for _ in range(3)]
    for _ in range(8):
        ops.append(None)
        ops += sorted(rng.sample(range(1, 31), rng.randint(0, 6)), reverse=True)
        ops += [rng.randint(1, 30) for _ in range(rng.randint(0, 2))]
    assert ops[:4] == [12, 16, 16, None]
    ts = make_threshold_set(30, "array")
    ref: list[int] = []
    for x in ops:
        if x is None:
            ts.begin_row()
        else:
            assert ts.update(x) == reference_update(ref, x)
    assert ts.contents() == ref
    assert ts.row_costs() == [
        RowCost(0, 3, 3), RowCost(2, 3, 3), RowCost(2, 4, 5), RowCost(3, 7, 13), RowCost(4, 6, 13),
        RowCost(5, 3, 4), RowCost(5, 1, 2), RowCost(5, 5, 9), RowCost(6, 2, 2),
    ]


def test_array_out_of_order_updates_still_correct():
    n = 64
    rng = random.Random(17)
    ts = make_threshold_set(n, "array")
    ref: list[int] = []
    for _ in range(800):
        x = rng.randint(1, n)
        assert ts.update(x) == reference_update(ref, x)
        assert ts.contents() == ref


def test_tree_backend_height_logarithmic():
    ts = make_threshold_set(4096, "tree")
    for x in range(1, 4097):
        ts.update(x)
    size = ts.size()
    assert ts.tree.height <= 2 * math.log2(size + 2) + 2


def test_literal_guard_is_faulty_on_witness():
    # successor equal to the maximum must still be replaced; the literal
    # pseudocode guard skips the delete and over-grows the set
    good = make_threshold_set(2, "veb")
    bad = LiteralGuardVebBackend(2)
    for ts in (good, bad):
        ts.update(2)
        ts.update(1)
    assert good.contents() == [1]
    assert bad.contents() == [1, 2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 40), max_size=60), st.sampled_from(ALL_BACKENDS))
def test_hypothesis_conformance(updates, backend):
    ts = make_threshold_set(40, backend)
    ref: list[int] = []
    for x in updates:
        assert ts.update(x) == reference_update(ref, x)
        assert ts.contents() == ref
