"""Mutation gate: each seeded mutant of ``src`` must fail one of its named tests.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutation_gate.py

Each entry of ``MUTANTS`` is (file under ``src``, exact old text, new
text, pytest node ids).  The gate first runs every node id against an
unmodified copy of ``src``, where they must pass, so that a later
failure is the mutant's doing.  Then, for each mutant, it copies ``src``
into a temporary directory, replaces the old text, which must occur
exactly once, and runs that mutant's node ids against the copy.  A
mutant is killed when pytest reports a failed test (exit status 1); any
other status, a collection error included, counts as a survivor.  The
gate exits 1 when a mutant survives, its old text does not occur
exactly once, or the unmodified run fails.  pytest does not collect
this file: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# _count's bytes-mode block and its column-map block, which M11 swaps
_COUNT_MASKS = """\
    if backend in ("auto", "bitpar") and type(xs) is bytes and type(ys) is bytes:
        masks = _byte_masks(xs, ys)
        counts = [0] * 256
        for sym, mask in masks.items():
            counts[sym] = mask.bit_count()
        stats = MatchStats(r=sum(map(counts.__getitem__, xs)), n=len(ys), m=len(xs))
        return stats, "masks", masks
"""
_COUNT_COLS = """\
    if backend == "auto":
        cols = column_map(x, y)
        if cols is not None:
            return MatchStats(r=len(cols), n=len(ys), m=len(xs)), "cols", cols
"""

MUTANTS = [
    (
        "M1: the array scan restarts on s[k + 1] < x",
        "lcseq/threshold.py",
        "if k + 1 < n and s[k + 1] <= x:",
        "if k + 1 < n and s[k + 1] < x:",
        ["tests/test_threshold.py::test_array_row_costs_pinned_on_mixed_stream"],
    ),
    (
        "M2: _byte_masks keys a plane's ones under the next plane's bit",
        "lcseq/core.py",
        "split[key | bit] = one",
        "split[key | (bit >> 1)] = one",
        ["tests/test_bytes.py::test_bytes_path_equals_tuple_path"],
    ),
    (
        "M3: _plan pairs each mask with ~mask",
        "lcseq/core.py",
        "{sym: (mask, full ^ mask) for sym, mask in masks.items()}",
        "{sym: (mask, ~mask) for sym, mask in masks.items()}",
        ["tests/test_core.py::test_hypothesis_plan_converts_at_most_once"],
    ),
    (
        "M4: _count's bytes-mode R is one too many",
        "lcseq/core.py",
        "MatchStats(r=sum(map(counts.__getitem__, xs)), n=len(ys), m=len(xs))",
        "MatchStats(r=sum(map(counts.__getitem__, xs)) + 1, n=len(ys), m=len(xs))",
        ["tests/test_core.py::test_hypothesis_count_step_agrees_across_backends"],
    ),
    (
        "M5: verify never reports a match count disagreement",
        "lcseq/cli.py",
        "if len(set(counts.values())) > 1:",
        "if False:",
        ["tests/test_cli.py::test_verify_fails_on_a_match_count_disagreement"],
    ),
    (
        "M6: ThresholdSet.update drops the replaced member",
        "lcseq/threshold.py",
        "return self._replace(x)",
        "self._replace(x)",
        ["tests/test_threshold.py::test_update_examples"],
    ),
    (
        "M7: _kernel_counters counts a Delete for every match",
        "lcseq/core.py",
        "delete=r - length",
        "delete=r",
        ["tests/test_core.py::test_kernel_rows_equal_array_backend"],
    ),
    (
        "M8: _match_rows keeps the rows that y does not match",
        "lcseq/core.py",
        "return filter(None, map(lists.get, x.symbols))",
        "return map(lists.get, x.symbols)",
        ["tests/test_core.py::test_kernel_rows_equal_array_backend"],
    ),
    (
        "M9: _byte_masks keeps the folded byte's mask",
        "lcseq/core.py",
        "masks.pop(lost[0], None)",
        "pass",
        ["tests/test_bytes.py::test_byte_masks_equal_position_list_masks"],
    ),
    (
        "M10: _bitpar_rows keeps a row only where x_i has a mask",
        "lcseq/core.py",
        "            v = (v + (v & mask)) | (v & rest)\n"
        "        if rows is not None:\n"
        "            rows.append(v)\n",
        "            v = (v + (v & mask)) | (v & rest)\n"
        "            if rows is not None:\n"
        "                rows.append(v)\n",
        ["tests/test_core.py::test_bitpar_walk_vs_oracle",
         "tests/test_core.py::test_bitpar_rows_hand_back_the_array_set"],
    ),
    (
        "M11: _count tries the column map before the bytes masks",
        "lcseq/core.py",
        _COUNT_MASKS + _COUNT_COLS,
        _COUNT_COLS + _COUNT_MASKS,
        ["tests/test_bytes.py::test_bytes_pairs_never_take_the_column_map"],
    ),
    (
        "M12: the subcommand dispatch accepts leftover arguments",
        "lcseq/cli.py",
        "        if not rest:\n",
        "        if True:\n",
        ["tests/test_cli.py::test_dispatch_fails_as_the_full_parser"],
    ),
    (
        "M13: main always runs the full parser",
        "lcseq/cli.py",
        "if argv and argv[0] in subparsers:",
        "if False:",
        ["tests/test_cli.py::test_valid_call_skips_the_top_level_parse"],
    ),
    (
        "M14: VebTree._insert also inserts into the summary on a non-empty cluster",
        "lcseq/veb.py",
        "                new = cluster._insert(l)\n",
        "                new = cluster._insert(l)\n"
        "                self.summary._insert(h)\n",
        ["tests/test_veb.py::test_recursion_per_operation_bounded"],
    ),
    (
        "M15: VebTree's root count adds 1 for an insert that found its key",
        "lcseq/veb.py",
        "self.population += new",
        "self.population += 1",
        ["tests/test_veb.py::test_insert_examples"],
    ),
    (
        "M16: AvlTree._balance never rotates",
        "lcseq/bst.py",
        "bf = _h(node.left) - _h(node.right)",
        "bf = 0",
        ["tests/test_bst.py::test_randomized_oracle"],
    ),
    (
        "M17: AvlTree.insert searches with `in` before inserting",
        "lcseq/bst.py",
        "        self._root = self._insert(self._root, key)\n",
        "        if key in self:\n"
        "            return False\n"
        "        self._root = self._insert(self._root, key)\n",
        ["tests/test_bst.py::test_descent_per_operation_bounded"],
    ),
    (
        "M18: a two-child delete walks to the successor and deletes it again from the right subtree",
        "lcseq/bst.py",
        "            node.right, node.key = _pop_min(node.right)\n",
        "            succ = node.right\n"
        "            while succ.left is not None:\n"
        "                succ = succ.left\n"
        "            node.key = succ.key\n"
        "            self._size += 1  # the second delete counts the key out again\n"
        "            node.right = self._delete(node.right, succ.key)\n",
        ["tests/test_bst.py::test_descent_per_operation_bounded"],
    ),
    (
        "M19: VebTree.__bool__ reads the root-only key count",
        "lcseq/veb.py",
        "return self.min is not None",
        "return self.population != 0",
        ["tests/test_veb.py::test_truth_value_is_nonempty_at_every_node"],
    ),
    (
        "M20: verify skips the shadow probe at exactly the limit",
        "lcseq/cli.py",
        "len(x) <= DEFAULT_SHADOW_LIMIT",
        "len(x) < DEFAULT_SHADOW_LIMIT",
        ["tests/test_cli.py::test_verify_runs_the_shadow_probe_up_to_its_limit"],
    ),
    (
        "M21: OpCounters.structure_total leaves out Delete",
        "lcseq/core.py",
        "return self.succ + self.pred + self.insert + self.delete",
        "return self.succ + self.pred + self.insert",
        ["tests/test_core.py::test_kernel_rows_equal_array_backend"],
    ),
    (
        "M22: the shadow set check catches only a set that runs ahead of the dense state",
        "lcseq/shadow.py",
        "if q_s[j] != self.q[j]:",
        "if q_s[j] > self.q[j]:",
        ["tests/test_shadow.py::test_check_row_detects_set_divergence"],
    ),
    (
        "M23: main lets a missing numpy through as a traceback",
        "lcseq/cli.py",
        "except (OSError, UnicodeEncodeError, ImportError) as exc:",
        "except (OSError, UnicodeEncodeError) as exc:",
        ["tests/test_cli.py::test_missing_numpy_is_one_error_line"],
    ),
]


def run_tests(src: Path, node_ids: list[str]) -> subprocess.CompletedProcess:
    """pytest on ``node_ids`` from the repository root, importing ``lcseq`` from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def imported_from(src: Path) -> Path:
    """The ``lcseq`` package directory that a child process imports with ``src`` first."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", "import lcseq; print(lcseq.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return Path(out.stdout.strip()).resolve().parent


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="lcseq-mutation-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if imported_from(src) != (src / "lcseq").resolve():
            print(f"error: lcseq is not imported from {src}; is another copy first on the path?")
            return 1
        all_ids = sorted({node for *_, ids in MUTANTS for node in ids})
        proc = run_tests(src, all_ids)
        if proc.returncode != 0:
            print(f"error: the tests fail without any mutant\n{proc.stdout}{proc.stderr}")
            return 1
        for name, path, old, new, ids in MUTANTS:
            target = src / path
            original = target.read_text()
            found = original.count(old)
            if found != 1:
                failures.append(name)
                print(f"BAD TEXT  {name}: {old!r} occurs {found} times in src/{path}")
                continue
            target.write_text(original.replace(old, new))
            start = time.perf_counter()
            try:
                proc = run_tests(src, ids)
            finally:
                target.write_text(original)
            verdict = "killed" if proc.returncode == 1 else "SURVIVED"
            print(f"{verdict:9} {name} ({time.perf_counter() - start:.1f} s)")
            if proc.returncode != 1:
                failures.append(name)
                print(f"  pytest exit status {proc.returncode}\n{proc.stdout}{proc.stderr}")
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
