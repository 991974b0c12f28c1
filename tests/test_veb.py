import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcseq.veb import VebTree

from helpers import SortedSetOracle


def make(contents, universe=8):
    t = VebTree(universe)
    for v in contents:
        t.insert(v)
    return t


def test_new_rounds_universe_up():
    assert VebTree(7).universe_bound == 8
    assert VebTree(1).universe_bound == 2
    assert VebTree(2).universe_bound == 2
    # next power of two computed independently
    expected = 1
    while expected < 100:
        expected *= 2
    assert VebTree(100).universe_bound == expected == 128


def test_new_is_empty():
    t = VebTree(7)
    assert len(t) == 0
    assert t.min is None and t.max is None


def test_insert_examples():
    t = make([2, 3, 6])
    assert list(t) == [2, 3, 6]
    t = make([3, 3])
    assert len(t) == 1 and list(t) == [3]
    t = make([0, 7])
    assert t.min == 0 and t.max == 7


def test_delete_examples():
    t = make([2, 3, 6])
    t.delete(3)
    assert list(t) == [2, 6]
    t = make([2])
    t.delete(2)
    assert len(t) == 0 and t.min is None and t.max is None
    t = make([2, 6])
    assert t.delete(5) is False
    assert list(t) == [2, 6]


def test_member_examples():
    t = make([2, 3, 6])
    assert 3 in t
    assert 4 not in t
    assert 0 not in VebTree(8)


def test_min_max_examples():
    t = make([2, 3, 6])
    assert t.min == 2 and t.max == 6
    t = make([5])
    assert t.min == t.max == 5


def test_succ_examples():
    t = make([2, 3, 6])
    assert t.successor(1) == 2
    assert t.successor(3) == 6
    assert t.successor(6) is None


def test_pred_examples():
    t = make([2, 3, 6])
    assert t.predecessor(6) == 3
    assert t.predecessor(2) is None
    assert t.predecessor(4) == 3


@pytest.mark.parametrize("op", ["insert", "delete", "successor", "predecessor"])
def test_domain_errors(op):
    t = VebTree(8)
    with pytest.raises(ValueError):
        getattr(t, op)(8)
    with pytest.raises(ValueError):
        getattr(t, op)(-1)
    with pytest.raises(ValueError):
        8 in t  # noqa: B015


def test_universe_must_be_positive():
    with pytest.raises(ValueError):
        VebTree(0)


def _check_population(tree):
    """The root's key count equals the keys that iteration yields.

    Only the root counts: its clusters and summaries keep no count.
    """
    assert len(tree) == sum(1 for _ in tree)


def _full_sweep(tree, oracle, universe):
    assert tree.min == oracle.min()
    assert tree.max == oracle.max()
    for x in range(universe):
        assert (x in tree) == oracle.member(x)
        assert tree.successor(x) == oracle.successor(x)
        assert tree.predecessor(x) == oracle.predecessor(x)


def test_randomized_oracle():
    universe = 256
    rng = random.Random(20240901)
    tree = VebTree(universe)
    oracle = SortedSetOracle()
    for step in range(2000):
        x = rng.randrange(universe)
        if rng.random() < 0.6:
            assert tree.insert(x) == oracle.insert(x)
        else:
            assert tree.delete(x) == oracle.delete(x)
        assert len(tree) == len(oracle.items)
        if step % 100 == 0:
            _full_sweep(tree, oracle, universe)
            _check_population(tree)
    _full_sweep(tree, oracle, universe)
    _check_population(tree)


def test_succ_pred_duality():
    rng = random.Random(7)
    universe = 128
    tree = VebTree(universe)
    for _ in range(40):
        tree.insert(rng.randrange(universe))
    members = set(tree)
    for x in range(universe):
        s = tree.successor(x)
        if s is None:
            assert not any(v > x for v in members)
            continue
        # nothing lies strictly between x and its successor, and walking
        # back from the successor lands on x or on x's own predecessor
        assert not any(x < v < s for v in members)
        back = tree.predecessor(s)
        assert back == (x if x in members else tree.predecessor(x))


def test_cluster_reused_after_emptying():
    tree = make([0, 5, 6], universe=16)  # 5 and 6 share cluster 1 of 4 keys
    cluster = tree.clusters[1]
    tree.delete(5)
    tree.delete(6)
    assert cluster.min is None
    assert list(tree) == [0]
    _check_population(tree)
    tree.insert(6)
    tree.insert(5)
    assert tree.clusters[1] is cluster
    assert list(tree) == [0, 5, 6]
    _check_population(tree)


def _nodes(tree: VebTree):
    """``tree`` and every summary and cluster under it."""
    yield tree
    if tree.summary is not None:
        yield from _nodes(tree.summary)
    for cluster in tree.clusters.values():
        yield from _nodes(cluster)


def test_truth_value_is_nonempty_at_every_node():
    """bool() of the root, each summary and each cluster reads min, not the root-only key count."""
    assert not VebTree(8)
    tree = make([1, 5, 6])
    assert tree and tree.summary and tree.clusters[2]  # the clusters of 1, and of 5 and 6
    for bits in range(1, 17):
        universe = 1 << bits
        rng = random.Random(bits)
        tree = VebTree(universe)
        keys = rng.sample(range(universe), min(universe, 200))
        for x in keys:
            tree.insert(x)
        for x in keys[::3]:
            tree.delete(x)
        nodes = list(_nodes(tree))
        for node in nodes:
            assert bool(node) == (node.min is not None), (bits, node.min)
        if bits > 1:
            assert any(node.min is not None for node in nodes[1:]), bits
    tree = make([0, 5, 6], universe=16)
    cluster = tree.clusters[1]
    assert cluster
    tree.delete(5)
    tree.delete(6)
    assert tree.clusters[1] is cluster and not cluster


def _depth_of(universe_bound: int) -> int:
    depth = 0
    bits = universe_bound.bit_length() - 1
    while bits > 1:
        bits -= bits >> 1  # upper half goes to the summary side
        depth += 1
    return depth


def _depth_bound(universe_bound: int) -> int:
    bits = universe_bound.bit_length() - 1
    loglog = max(bits, 1).bit_length()
    return loglog + 2


def _nesting_depth(tree: VebTree) -> int:
    """Levels of summaries and clusters under ``tree``, along its deepest chain."""
    children = list(tree.clusters.values())
    if tree.summary is not None:  # not truthiness: a summary emptied by deletes is still built
        children.append(tree.summary)
    return 1 + max(map(_nesting_depth, children)) if children else 0


def test_depth_bound():
    """Built trees nest summaries and clusters _depth_of(u) = ceil(log2 b) deep, within the bound."""
    for bits in range(1, 21):
        u = 1 << bits
        tree = VebTree(u)
        for x in random.Random(bits).sample(range(u), min(u, 300)):
            tree.insert(x)
        assert _nesting_depth(tree) == _depth_of(u) <= _depth_bound(u), (bits, _nesting_depth(tree))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 63)),
        max_size=80,
    )
)
def test_hypothesis_matches_sorted_set(ops):
    tree = VebTree(64)
    oracle = SortedSetOracle()
    for op, x in ops:
        if op == "insert":
            assert tree.insert(x) == oracle.insert(x)
        else:
            assert tree.delete(x) == oracle.delete(x)
    assert list(tree) == oracle.items
    _full_sweep(tree, oracle, 64)
    _check_population(tree)


def test_every_width_matches_sorted_set():
    """in, len, iteration, insert/delete results, succ, pred, min and max, at b = 1..16 bits."""
    for bits in range(1, 17):
        universe = 1 << bits
        rng = random.Random(bits)
        tree = VebTree(universe)
        oracle = SortedSetOracle()
        for step in range(400):
            x = rng.randrange(universe)
            if oracle.items and rng.random() < 0.3:
                x = rng.choice(oracle.items)
            if rng.random() < 0.6:
                assert tree.insert(x) == oracle.insert(x)
            else:
                assert tree.delete(x) == oracle.delete(x)
            assert len(tree) == len(oracle.items)
            assert tree.min == oracle.min() and tree.max == oracle.max()
            for probe in (x, rng.randrange(universe), 0, universe - 1):
                assert (probe in tree) == oracle.member(probe)
                assert tree.successor(probe) == oracle.successor(probe)
                assert tree.predecessor(probe) == oracle.predecessor(probe)
            if step % 50 == 0:
                assert list(tree) == oracle.items
        assert list(tree) == oracle.items


def test_recursion_per_operation_bounded():
    """The O(log log u) bound as counted calls, at every width b = 1..16 bits.

    Each public call is charged every call of ``_succ``, ``_pred``,
    ``_insert`` and ``_delete`` that it makes, recursive ones included.
    With k = ceil(log2 b), the recursion depth, successor, predecessor,
    insert and ``in`` make at most k + 1 calls: one per level.  delete
    makes at most 2k + 1: a cluster that it empties is followed by one
    delete in the summary.  Each of the five reaches k + 1 at every b,
    so the random sequences do descend to the deepest level.
    """
    calls = 0

    def counting(method):
        def counted(self, x):
            nonlocal calls
            calls += 1
            return method(self, x)
        return counted

    ops = {"successor": VebTree.successor, "predecessor": VebTree.predecessor,
           "insert": VebTree.insert, "delete": VebTree.delete, "in": VebTree.__contains__}
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_succ", "_pred", "_insert", "_delete"):
            patch.setattr(VebTree, name, counting(getattr(VebTree, name)))
        for bits in range(1, 17):
            k = (bits - 1).bit_length()
            bound = dict.fromkeys(ops, k + 1)
            bound["delete"] = 2 * k + 1
            most = dict.fromkeys(ops, 0)
            universe = 1 << bits
            rng = random.Random(20261020 + bits)
            tree = VebTree(universe)
            keys = []
            for _ in range(1500):
                op = rng.choice(("insert", "insert", "delete", "successor", "predecessor", "in"))
                x = rng.choice(keys) if keys and rng.random() < 0.5 else rng.randrange(universe)
                if op == "insert":
                    keys.append(x)
                calls = 0
                ops[op](tree, x)
                assert calls <= bound[op], (bits, op, x, calls)
                most[op] = max(most[op], calls)
            assert min(most.values()) == k + 1, (bits, most)
