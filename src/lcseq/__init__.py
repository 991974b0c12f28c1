"""Longest common subsequence via ordered threshold sets.

The default path picks one of two kernels from the match count R: the
successor-replacement update on a plain sorted list with bisect
(Hunt-Szymanski, O(R log L + n)) or a bit-parallel row update
(O(m * ceil(n/64))); three counted backends (van Emde Boas tree, AVL
tree, sorted vector) drive the same update as the paper's structures.
Reconstruction records a per-match predecessor trace in O(R) space, or,
on the bit-parallel path, keeps the rows and walks back the LCS chain.

The names in ``__all__`` are exported lazily (PEP 562): ``import lcseq``
loads no submodule, and the first lookup of a name imports the one
module that defines it.  So ``from lcseq import lcs_length`` loads
``core`` and ``matching`` only: not ``threshold``, ``bench``, ``shadow``,
``veb`` or ``bst``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bench": ("BenchCase", "emit_report", "gen_pair", "gen_sequence", "run_bench"),
    "core": (
        "DpCapError",
        "LcsResult",
        "OpCounters",
        "ReconstructionCapError",
        "TraceTable",
        "dp_oracle",
        "extract_lcs",
        "lcs_length",
        "lcs_reconstruct",
        "validate_common_subsequence",
    ),
    "matching": (
        "MatchStats",
        "PositionLists",
        "Sequence",
        "SymbolTable",
        "build_position_lists",
        "count_matches",
        "tokenize",
    ),
    "shadow": ("InvariantViolation", "ShadowState", "ShadowTracker", "shadow_run"),
    "threshold": (
        "ArrayBackend",
        "ThresholdSet",
        "TreeBackend",
        "VebBackend",
        "make_threshold_set",
    ),
    "veb": ("VebTree",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
