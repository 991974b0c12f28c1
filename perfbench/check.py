"""The benchmark's own correctness reference and output parsing.

Nothing here calls the threshold-set code under test. The reference LCS
length is the dense `dp_oracle` table where the pair is under its cell
cap, and above the cap a Hunt-Szymanski sweep on a plain bisect list.
"""

from __future__ import annotations

from bisect import bisect_left

from lcseq.core import DEFAULT_DP_CAP, dp_oracle
from lcseq.matching import Sequence


def match_rows(x, y) -> list[list[int]]:
    """Per row of x with any match, its 1-based columns in y, decreasing."""
    index: dict = {}
    for j in range(len(y), 0, -1):
        index.setdefault(y[j - 1], []).append(j)
    return [index[s] for s in x if s in index]


def threshold_stream(rows: list[list[int]]) -> tuple[list[tuple[int, int]], int]:
    """Replay rows on a bisect list of thresholds.

    Returns each update as (column, replaced member or 0), in order,
    and the final LCS length.
    """
    thresh: list[int] = []
    stream = []
    for row in rows:
        for j in row:
            k = bisect_left(thresh, j)
            if k == len(thresh):
                thresh.append(j)
                stream.append((j, 0))
            else:
                stream.append((j, thresh[k]))
                thresh[k] = j
    return stream, len(thresh)


def as_symbols(x, y) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Dense integer ids for two token sequences, shared across both."""
    ids: dict = {}
    return (
        tuple(ids.setdefault(t, len(ids)) for t in x),
        tuple(ids.setdefault(t, len(ids)) for t in y),
    )


def under_dp_cap(x, y) -> bool:
    return (len(x) + 1) * (len(y) + 1) <= DEFAULT_DP_CAP


def reference_length(x, y) -> int:
    """LCS length of token sequences x and y."""
    if under_dp_cap(x, y):
        sx, sy = as_symbols(x, y)
        return int(dp_oracle(Sequence(sx), Sequence(sy))[len(sx)][len(sy)])
    return threshold_stream(match_rows(x, y))[1]


def is_subsequence(candidate, seq) -> bool:
    it = iter(seq)
    return all(c in it for c in candidate)


def parse_length(out: str) -> tuple[int, str]:
    """(L, backend) from `lcseq length` text output."""
    fields = dict(line.split(" = ", 1) for line in out.splitlines())
    return int(fields["L"]), fields["backend"]


def parse_subseq(out: str, mode: str) -> tuple[int, list]:
    """(L, tokens) from `lcseq subseq` text output: "L = <n>", the LCS, newline."""
    head, _, rest = out.partition("\n")
    if not head.startswith("L = ") or not rest.endswith("\n"):
        raise ValueError(f"unexpected subseq output starting {out[:40]!r}")
    length = int(head[4:])
    rendered = rest[:-1]
    if mode == "bytes":
        return length, rendered.encode("latin-1")
    return length, [line.encode() for line in rendered.split("\n")] if rendered else []
