"""The six result records behave as the dataclasses they replaced did.

Each is a ``__slots__`` class: the same field order and defaults,
positional and keyword construction, field-wise ``==`` only within one
class, a ``Name(field=value, ...)`` repr, and copy and pickle
round-trips.  ``Sequence`` and ``MatchStats`` are immutable and
hashable; the other four are mutable and unhashable.
"""

import copy
import pickle

import pytest

from lcseq.core import LcsResult, OpCounters, TraceTable
from lcseq.matching import MatchStats, PositionLists, Sequence

# (class, field names in order, defaults of the trailing fields, one set of values)
RECORDS = [
    (Sequence, ("symbols",), {}, ((1, 2, 1),)),
    (PositionLists, ("lists", "length"), {}, ({1: [3, 1], 2: [2]}, 3)),
    (MatchStats, ("r", "n", "m"), {}, (5, 3, 4)),
    (
        OpCounters,
        ("succ", "pred", "insert", "delete", "update"),
        {"succ": 0, "pred": 0, "insert": 0, "delete": 0, "update": 0},
        (4, 1, 4, 2, 4),
    ),
    (TraceTable, ("predecessor", "column", "count"), {"count": 0}, ([0, 0, 1], [0, 2, 3], 2)),
    (
        LcsResult,
        ("length", "subsequence", "stats", "counters", "backend", "row_costs", "trace"),
        {"row_costs": None, "trace": None},
        (
            2,
            (1, 2),
            MatchStats(5, 3, 4),
            OpCounters(4, 0, 4, 2, 4),
            "bisect",
            None,
            TraceTable([0, 0, 1], [0, 2, 3], 2),
        ),
    ),
]
FROZEN = (Sequence, MatchStats)
IDS = [cls.__name__ for cls, *_ in RECORDS]


def _values(rec, names):
    return tuple(getattr(rec, name) for name in names)


@pytest.mark.parametrize("cls, names, defaults, values", RECORDS, ids=IDS)
def test_field_order_defaults_and_keywords(cls, names, defaults, values):
    assert cls.__slots__ == names
    rec = cls(*values)
    assert _values(rec, names) == values
    assert cls(**dict(zip(names, values))) == rec
    required = names[: len(names) - len(defaults)]
    bare = cls(*values[: len(required)])
    for name in names:
        expected = defaults[name] if name in defaults else values[names.index(name)]
        assert getattr(bare, name) == expected
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("cls, names, defaults, values", RECORDS, ids=IDS)
def test_equality_is_field_wise_within_one_class(cls, names, defaults, values):
    rec = cls(*values)
    assert rec == cls(*values)
    assert not rec != cls(*values)
    changed = cls(*values[:-1], "other")
    assert rec != changed
    assert not rec == changed

    # a record of another class with the same fields is not equal
    class Twin(cls):
        __slots__ = ()

    assert rec != Twin(*values)
    assert rec != values


@pytest.mark.parametrize("cls, names, defaults, values", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, names, defaults, values):
    rec = cls(*values)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(rec) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, names, defaults, values", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(cls, names, defaults, values):
    rec = cls(*values)
    deep = copy.deepcopy(rec)
    assert deep == rec and type(deep) is cls
    assert copy.copy(rec) == rec
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert back == rec and type(back) is cls


@pytest.mark.parametrize("cls, names, defaults, values", RECORDS, ids=IDS)
def test_frozen_pair_is_hashable_and_the_rest_is_not(cls, names, defaults, values):
    rec = cls(*values)
    if cls in FROZEN:
        assert hash(rec) == hash(cls(*values))
        assert len({rec, cls(*values)}) == 1
        for name in names:
            with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert _values(rec, names) == values
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)
        setattr(rec, names[0], values[-1])
        assert getattr(rec, names[0]) == values[-1]
