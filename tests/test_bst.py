import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from lcseq.bst import AvlTree

from helpers import SortedSetOracle


def _full_sweep(tree, oracle, universe):
    assert len(tree) == len(oracle.items)
    assert list(tree) == oracle.items
    assert tree.max == oracle.max()
    for x in range(universe):
        assert (x in tree) == oracle.member(x)
        assert tree.successor(x) == oracle.successor(x)
        assert tree.predecessor(x) == oracle.predecessor(x)
    # an AVL tree of size s is at most about 1.44 log2(s + 2) high
    assert tree.height <= 1.45 * math.log2(len(tree) + 2)


def _apply(tree, oracle, op, x):
    if op == "insert":
        assert tree.insert(x) == oracle.insert(x)
    else:
        assert tree.delete(x) == oracle.delete(x)
    assert len(tree) == len(oracle.items)


def test_examples():
    tree = AvlTree()
    assert len(tree) == 0 and tree.height == 0 and tree.max is None
    assert tree.successor(0) is None and tree.predecessor(0) is None
    assert tree.delete(3) is False
    assert tree.insert(3) is True
    assert tree.insert(3) is False  # keys are unique
    assert tree.insert(1) is True
    assert list(tree) == [1, 3] and tree.max == 3
    assert tree.successor(1) == 3 and tree.predecessor(3) == 1
    assert tree.delete(2) is False
    assert tree.delete(3) is True
    assert list(tree) == [1] and len(tree) == 1


def test_randomized_oracle():
    universe = 256
    rng = random.Random(20260419)
    tree = AvlTree()
    oracle = SortedSetOracle()
    for step in range(3000):
        _apply(tree, oracle, "insert" if rng.random() < 0.6 else "delete", rng.randrange(universe))
        if step % 100 == 0:
            _full_sweep(tree, oracle, universe)
    _full_sweep(tree, oracle, universe)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 63)),
        max_size=80,
    )
)
def test_hypothesis_matches_sorted_set(ops):
    tree = AvlTree()
    oracle = SortedSetOracle()
    for op, x in ops:
        _apply(tree, oracle, op, x)
    _full_sweep(tree, oracle, 64)
