import math
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcseq import bst
from lcseq.bst import AvlTree

from helpers import CountedKey, SortedSetOracle


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


def test_descent_per_operation_bounded():
    """One root-to-leaf descent per public operation, counted in the test only.

    Keys are ``CountedKey``s, which count the comparisons they take part
    in, and wrappers patched here record every call of ``_insert``,
    ``_delete`` and ``_pop_min`` with the key it carries (None for
    ``_pop_min``).  With h the height before the call:

    * successor and predecessor compare at most h times, one per node
      on their path, and ``in`` at most h + 1: a successor descent and
      one ==.
    * insert and delete compare at most 2h times (< and then > at each
      node of one path).  Their calls visit at most h + 1 nodes (the
      path, plus the empty link where a descent ends), and every
      ``_insert``/``_delete`` call carries the public call's own key:
      no membership search first, and a two-child delete takes the
      right subtree's minimum out in the same pass.

    The bounds are the exact maxima measured, and each is reached.
    """
    visits = []

    def recording(method):
        def recorded(self, node, key):
            visits.append(key)
            return method(self, node, key)
        return recorded

    def recording_pop_min(node, pop_min=bst._pop_min):
        visits.append(None)
        return pop_min(node)

    ops = {"successor": AvlTree.successor, "predecessor": AvlTree.predecessor,
           "insert": AvlTree.insert, "delete": AvlTree.delete, "in": AvlTree.__contains__}
    most = defaultdict(lambda: -math.inf)  # (op, what is counted) -> largest count less its bound
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_insert", "_delete"):
            patch.setattr(AvlTree, name, recording(getattr(AvlTree, name)))
        patch.setattr(bst, "_pop_min", recording_pop_min)
        for size in (8, 300, 4000):
            rng = random.Random(20261021 + size)
            tree = AvlTree()
            keys = []
            for _ in range(3 * size + 1000):
                op = rng.choice(("insert",) * 3 + ("delete", "successor", "predecessor", "in"))
                x = rng.choice(keys) if keys and rng.random() < 0.5 else rng.randrange(2 * size)
                if op == "insert":
                    keys.append(x)
                h = tree.height
                visits.clear()
                CountedKey.compared = 0
                ops[op](tree, CountedKey(x))
                compared = CountedKey.compared
                if op in ("insert", "delete"):
                    assert len(visits) <= h + 1, (size, op, x, h, visits)
                    assert all(int.__eq__(key, x) for key in visits if key is not None), (
                        size, op, x, visits)
                    most[op, "nodes"] = max(most[op, "nodes"], len(visits) - h - 1)
                    bound = 2 * h
                else:
                    bound = h + (op == "in")
                assert compared <= bound, (size, op, x, h, compared)
                most[op, "compared"] = max(most[op, "compared"], compared - bound)
            assert len(tree) > size // 3, (size, len(tree))  # 11, 243 and 1960 keys
    assert len(most) == 7 and set(most.values()) == {0}, most
