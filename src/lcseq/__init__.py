"""Longest common subsequence via ordered threshold sets.

The default path picks one of two kernels from the match count R: the
successor-replacement update on a plain sorted list with bisect
(Hunt-Szymanski, O(R log L + n)) or a bit-parallel row update
(O(m * ceil(n/64))); three counted backends (van Emde Boas tree, AVL
tree, sorted vector) drive the same update as the paper's structures.
Reconstruction records a per-match predecessor trace in O(R) space, or,
on the bit-parallel path, keeps the rows and walks back the LCS chain.
"""

from .bench import BenchCase, emit_report, gen_pair, gen_sequence, run_bench
from .core import (
    DpCapError,
    LcsResult,
    ReconstructionCapError,
    TraceTable,
    dp_oracle,
    dp_traceback,
    extract_lcs,
    lcs_length,
    lcs_reconstruct,
    validate_common_subsequence,
)
from .matching import (
    MatchStats,
    PositionLists,
    Sequence,
    SymbolTable,
    build_position_lists,
    count_matches,
    tokenize,
)
from .shadow import InvariantViolation, ShadowState, ShadowTracker, shadow_run
from .threshold import (
    ArrayBackend,
    OpCounters,
    ThresholdSet,
    TreeBackend,
    VebBackend,
    make_threshold_set,
)
from .veb import VebTree

__version__ = "0.1.0"
