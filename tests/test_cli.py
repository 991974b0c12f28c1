import argparse
import ast
import csv
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import lcseq
from lcseq.cli import build_parser
from lcseq.core import BENCH_BACKENDS, LENGTH_BACKENDS

from helpers import (
    _run_patched_cli,
    overcounting_kernel,
    run_cli_with_failed_allocation,
    run_cli_with_failed_validation,
    run_cli_with_literal_guard,
    run_cli_with_overcounting_bitpar,
    run_cli_with_overcounting_kernel,
    run_cli_with_overcounting_matches,
    run_cli_with_short_extract,
)

CLI = [sys.executable, "-m", "lcseq.cli"]

# one match per row (R = 9 < m): the bisect kernel's regime
ONE_PER_ROW = (b"abcdefghij", b"abcdXfghij")
# sigma = 2, R = 128 for m = n = 16: the bitpar kernel's regime
SIGMA_2 = (b"abbabaabbaababba", b"babaabbaabbabaab")


def run_cli(*args, stdin: bytes = b""):
    return subprocess.run(
        CLI + list(args), input=stdin, capture_output=True, timeout=120
    )


def write_pair(tmp_path, a: bytes, b: bytes):
    fa, fb = tmp_path / "a", tmp_path / "b"
    fa.write_bytes(a)
    fb.write_bytes(b)
    return str(fa), str(fb)


def test_length_example(tmp_path):
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    proc = run_cli("length", fa, fb, "--output", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload == {"m": 7, "n": 6, "R": 12, "L": 4, "backend": payload["backend"]}


def test_length_empty_and_identical(tmp_path):
    fa, fb = write_pair(tmp_path, b"", b"")
    proc = run_cli("length", fa, fb, "--output", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["L"] == 0

    fa, fb = write_pair(tmp_path, b"hello world", b"hello world")
    proc = run_cli("length", fa, fb, "--output", "json")
    assert json.loads(proc.stdout)["L"] == 11


@pytest.mark.parametrize("backend", ["veb", "tree", "array", "auto"])
def test_length_backends(tmp_path, backend):
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    proc = run_cli("length", fa, fb, "--backend", backend, "--output", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["L"] == 4


@pytest.mark.parametrize("pair", [ONE_PER_ROW, SIGMA_2])
@pytest.mark.parametrize("kernel", ["bisect", "bitpar"])
def test_length_kernels_by_name(tmp_path, pair, kernel):
    # either kernel runs by name on either regime, with auto's L
    fa, fb = write_pair(tmp_path, *pair)
    auto = json.loads(run_cli("length", fa, fb, "--output", "json").stdout)
    proc = run_cli("length", fa, fb, "--backend", kernel, "--output", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {**auto, "backend": kernel}
    text = run_cli("length", fa, fb, "--backend", kernel).stdout.decode().splitlines()
    assert text[-2:] == [f"L = {auto['L']}", f"backend = {kernel}"]


def test_length_unknown_backend_is_usage_error(tmp_path):
    fa, fb = write_pair(tmp_path, *ONE_PER_ROW)
    proc = run_cli("length", fa, fb, "--backend", "bogus")
    assert proc.returncode == 2
    assert b"invalid choice" in proc.stderr


def test_auto_picks_bisect(tmp_path):
    fa, fb = write_pair(tmp_path, *ONE_PER_ROW)
    payload = json.loads(run_cli("length", fa, fb, "--output", "json").stdout)
    assert payload["backend"] == "bisect"
    assert (payload["R"], payload["L"]) == (9, 9)


def test_auto_picks_bitpar(tmp_path):
    fa, fb = write_pair(tmp_path, *SIGMA_2)
    payload = json.loads(run_cli("length", fa, fb, "--output", "json").stdout)
    assert payload["backend"] == "bitpar"
    assert payload["R"] == 128
    assert run_cli("length", fa, fb).stdout.decode().splitlines()[-1] == "backend = bitpar"


def test_import_does_not_load_numpy():
    # numpy is only needed by the dense oracle
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lcseq.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"False"


_DEFAULT_PATH_PROBE = """\
import sys
sys.path.insert(0, sys.argv.pop(1))  # `python -S` skips an editable install's .pth
import lcseq.cli
for kind in ("length", "subseq"):
    assert lcseq.cli.main([kind, *sys.argv[1:]]) == 0
print([m for m in ("lcseq.bench", "lcseq.shadow", "lcseq.threshold", "lcseq.veb", "lcseq.bst",
                   "numpy", "dataclasses", "inspect", "json", "typing")
       if m in sys.modules])
"""


def _default_path_modules(tmp_path, pair, *flags) -> list[str]:
    """The probe's listed modules loaded after `length` and `subseq` in one process."""
    fa, fb = write_pair(tmp_path, *pair)
    src = str(Path(lcseq.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _DEFAULT_PATH_PROBE, src, fa, fb],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1].decode())


@pytest.mark.parametrize("pair", [ONE_PER_ROW, SIGMA_2], ids=["bisect", "bitpar"])
def test_length_and_subseq_load_only_the_default_path(tmp_path, pair):
    # the benchmark harness, the shadow checker, the counted sets and trees,
    # the oracle's numpy, dataclasses (and the inspect it pulls in) and json
    # stay unloaded on the user path in text mode; a site may load typing
    assert [m for m in _default_path_modules(tmp_path, pair) if m != "typing"] == []


@pytest.mark.parametrize("pair", [ONE_PER_ROW, SIGMA_2], ids=["bisect", "bitpar"])
def test_default_path_loads_no_typing_without_site(tmp_path, pair):
    assert _default_path_modules(tmp_path, pair, "-S") == []


_JSON_PROBE = """\
import sys
import lcseq.cli
assert "json" not in sys.modules
sys.exit(lcseq.cli.main(["length", *sys.argv[1:], "--output", "json"]))
"""


def test_length_json_imports_json_when_it_writes(tmp_path):
    # json is loaded by the first --output json write, in a fresh process
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    proc = subprocess.run(
        [sys.executable, "-c", _JSON_PROBE, fa, fb], capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"m": 7, "n": 6, "R": 12, "L": 4, "backend": "bitpar"}


_REUSE_PROBE = """\
import argparse, io, json, sys
from contextlib import redirect_stderr, redirect_stdout

built = []
init = argparse.ArgumentParser.__init__

def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting_init
from lcseq.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    results.append([rc, out.getvalue(), err.getvalue(), len(built)])
print(json.dumps(results))
"""


def _comparable(argv, stdout: str) -> str:
    # bench rows carry a measured time; everything else must match exactly
    if argv[0] != "bench":
        return stdout
    return json.dumps([{k: v for k, v in row.items() if k != "time_ns"}
                       for row in json.loads(stdout)])


def test_main_reuses_one_stateless_parser(tmp_path):
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    la, lb = tmp_path / "la", tmp_path / "lb"
    la.write_bytes(b"alpha\nbeta\ngamma\n")
    lb.write_bytes(b"alpha\ngamma\ndelta\n")
    bench = ["bench", "--n", "8", "--repeats", "1", "--output", "json"]
    runs = [
        ["length", fa, fb, "--output", "json"],
        ["length", fa, fb],
        ["subseq", str(la), str(lb), "--mode", "lines"],
        ["subseq", str(la), str(lb)],
        ["length", str(la), str(lb), "--mode", "lines", "--backend", "bisect"],
        ["length", fa],
        ["length", fa, fb, "leftover"],
        ["length", fa, fb, "--mode", "words"],
        [*bench, "--backend", "auto"],
        bench,
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _REUSE_PROBE, json.dumps(runs)], capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    # the first call builds the parser and its five subparsers; no later call builds one
    assert [built for *_, built in results] == [6] * len(runs)
    assert [rc for rc, *_ in results] == [0, 0, 0, 0, 0, 2, 2, 2, 0, 0]
    for argv, (rc, stdout, stderr, _) in zip(runs, results):
        fresh = run_cli(*argv)
        assert rc == fresh.returncode, argv
        assert _comparable(argv, stdout) == _comparable(argv, fresh.stdout.decode()), argv
        assert stderr == fresh.stderr.decode(), argv


# options before and after the inputs, --opt=value, an abbreviation, '-' and '--'
VALID_ARGV = [
    ["length", "a", "b"],
    ["length", "--mode", "lines", "--backend", "veb", "a", "b"],
    ["length", "--output=json", "a", "b", "--mode", "lines"],
    ["length", "--mo", "lines", "a", "b"],
    ["length", "-", "b", "--output", "json"],
    ["length", "--", "a", "b"],
    ["length", "a", "--", "b"],
    ["length", "--backend", "bitpar", "--", "-", "b"],
    ["length", "a", "b", "--"],
    ["length", "--", "-a", "b"],
    ["subseq", "a", "b", "--memory-cap", "0"],
    ["subseq", "--memory-cap=5", "a", "b", "--mode=lines", "--output", "json"],
    ["stats", "--output", "json", "-", "b"],
    ["verify", "a", "b", "--mode", "lines", "--memory-cap", "7"],
    ["bench"],
    ["bench", "--n", "8", "--backend", "auto,veb", "--seed=-3", "--output", "json"],
]

# help, usage errors, an unknown subcommand and leftover arguments
FAILING_ARGV = [
    [],
    ["-h"],
    ["length", "-h"],
    ["nope", "a", "b"],
    ["--", "length", "a", "b"],
    ["length", "a", "b", "--bogus"],
    ["length", "a", "b", "c"],
    ["length", "a", "b", "--", "c"],
    ["length", "--", "a", "b", "--mode", "lines"],
    ["length", "a", "b", "--mode", "words"],
    ["length", "a"],
    ["length", "a", "--output=json", "b"],
    ["subseq", "a", "b", "--memory-cap", "-1"],
    ["verify", "--output", "json", "a", "b"],
    ["bench", "x"],
]


def _parsed(parse, argv):
    """(vars of the namespace or None, exit code or None, stdout, stderr) of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return vars(parse(argv)), None, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
def test_dispatch_parses_as_the_full_parser(argv):
    dispatched = _parsed(lcseq.cli._parse, argv)
    assert dispatched[0] is not None, dispatched
    assert dispatched == _parsed(build_parser().parse_args, argv)


@pytest.mark.parametrize("argv", FAILING_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_dispatch_fails_as_the_full_parser(argv):
    full = _parsed(build_parser().parse_args, argv)
    assert full[1] in (0, 2), full
    assert _parsed(lcseq.cli.main, argv) == full


def test_valid_call_skips_the_top_level_parse(tmp_path, monkeypatch, capsys):
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")

    def refuse(*args, **kwargs):
        raise AssertionError("a valid call ran the top-level parser")

    monkeypatch.setattr(build_parser(), "parse_known_args", refuse)
    monkeypatch.setattr(build_parser(), "parse_args", refuse)
    for argv in (["length", fa, fb], ["subseq", "--mode", "lines", fa, fb],
                 ["stats", fa, fb, "--output=json"]):
        assert lcseq.cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("m = 7\n")


# fd 0 or fd 1 closed at start-up: sys.stdin or sys.stdout is None in the child
CLOSED_STREAMS = [
    ("<&-", ["length", "-", "{b}"], "standard input"),
    *((">&-", [cmd, "{a}", "{b}"], "standard output")
      for cmd in ("length", "subseq", "stats", "verify")),
    (">&-", ["bench", "--n", "8", "--repeats", "1"], "standard output"),
]


@pytest.mark.parametrize("close, argv, stream", CLOSED_STREAMS,
                         ids=[f"{a[0]}-{s.split()[1]}" for _, a, s in CLOSED_STREAMS])
def test_closed_stream_exits_2(tmp_path, close, argv, stream):
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    argv = [arg.format(a=fa, b=fb) for arg in argv]
    proc = subprocess.run(["sh", "-c", f'exec "$@" {close}', "sh", *CLI, *argv],
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (2, f"error: {stream} is closed\n".encode())


def test_subcommand_options():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    assert options == {
        "length": {"--mode", "--output", "--backend"},
        "subseq": {"--mode", "--output", "--memory-cap"},
        "stats": {"--mode", "--output"},
        "verify": {"--mode", "--memory-cap"},
        "bench": {"--output", "--n", "--sigma", "--seed", "--structure", "--repeats", "--backend"},
    }


def test_backend_choices_read_one_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    backend = next(a for a in sub.choices["length"]._actions if a.dest == "backend")
    assert tuple(backend.choices) == LENGTH_BACKENDS
    assert BENCH_BACKENDS == (*LENGTH_BACKENDS, "dp_oracle")


def test_text_and_json_agree(tmp_path):
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    text = run_cli("length", fa, fb).stdout.decode()
    payload = json.loads(run_cli("length", fa, fb, "--output", "json").stdout)
    text_values = dict(
        line.split(" = ") for line in text.strip().splitlines()
    )
    for key in ("m", "n", "R", "L"):
        assert int(text_values[key]) == payload[key]


# the bytes pair takes y's masks (bitpar), the lines pair repeats a line of y (position lists)
REPORTS = {
    ("bytes", b"abcbdab", b"bdcaba"): {
        "length": ("m = 7\nn = 6\nR = 12\nL = 4\nbackend = bitpar\n",
                   '{"m": 7, "n": 6, "R": 12, "L": 4, "backend": "bitpar"}\n'),
        "subseq": ("L = 4\nbdab\n",
                   '{"m": 7, "n": 6, "R": 12, "L": 4, "backend": "bitpar", '
                   '"subsequence": "bdab"}\n'),
        "stats": ("m = 7\nn = 6\nR = 12\ndistinct_symbols = 4\n",
                  '{"m": 7, "n": 6, "R": 12, "distinct_symbols": 4}\n'),
    },
    ("lines", b"alpha\nbeta\ngamma\n", b"beta\ngamma\nbeta\n"): {
        "length": ("m = 3\nn = 3\nR = 3\nL = 2\nbackend = bisect\n",
                   '{"m": 3, "n": 3, "R": 3, "L": 2, "backend": "bisect"}\n'),
        "subseq": ("L = 2\nbeta\ngamma\n",
                   '{"m": 3, "n": 3, "R": 3, "L": 2, "backend": "bisect", '
                   '"subsequence": "beta\\ngamma"}\n'),
        "stats": ("m = 3\nn = 3\nR = 3\ndistinct_symbols = 3\n",
                  '{"m": 3, "n": 3, "R": 3, "distinct_symbols": 3}\n'),
    },
}


@pytest.mark.parametrize("case", REPORTS, ids=lambda case: case[0])
def test_reports_are_byte_exact(tmp_path, capsys, case):
    """Key order, text lines and JSON spacing of every report, as written."""
    mode, a, b = case
    fa, fb = write_pair(tmp_path, a, b)
    for cmd, outputs in REPORTS[case].items():
        for output, expected in zip(("text", "json"), outputs):
            assert lcseq.cli.main([cmd, fa, fb, "--mode", mode, "--output", output]) == 0
            assert capsys.readouterr() == (expected, ""), (cmd, output)


def test_subseq(tmp_path):
    fa, fb = write_pair(tmp_path, b"abc", b"abc")
    proc = run_cli("subseq", fa, fb)
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines()[-1] == "abc"

    fa, fb = write_pair(tmp_path, b"ab", b"cd")
    proc = run_cli("subseq", fa, fb, "--output", "json")
    payload = json.loads(proc.stdout)
    assert payload["L"] == 0 and payload["subsequence"] == ""

    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    payload = json.loads(run_cli("subseq", fa, fb, "--output", "json").stdout)
    sub = payload["subsequence"].encode()
    assert len(sub) == 4

    def is_subseq(s, t):
        it = iter(t)
        return all(any(c == d for d in it) for c in s)

    assert is_subseq(sub, b"abcbdab") and is_subseq(sub, b"bdcaba")


def test_subseq_json_reports_backend(tmp_path):
    for pair, kernel in ((ONE_PER_ROW, "bisect"), (SIGMA_2, "bitpar")):
        fa, fb = write_pair(tmp_path, *pair)
        payload = json.loads(run_cli("subseq", fa, fb, "--output", "json").stdout)
        assert payload["backend"] == kernel
        sub = payload["subsequence"].encode()
        assert len(sub) == payload["L"]
        for seq in pair:
            it = iter(seq)
            assert all(c in it for c in sub)


def test_length_and_subseq_report_one_backend(tmp_path):
    # sigma = 256, n = 400, 5% of y redrawn: R/m near 2.5, where bitpar's
    # cost per row is close to bisect's cost per match
    rng = random.Random(2004)
    a = bytes(rng.randrange(256) for _ in range(400))
    b = bytearray(a)
    for k in rng.sample(range(400), 20):
        b[k] = rng.randrange(256)
    fa, fb = write_pair(tmp_path, a, bytes(b))
    length = json.loads(run_cli("length", fa, fb, "--output", "json").stdout)
    subseq = json.loads(run_cli("subseq", fa, fb, "--output", "json").stdout)
    assert 2.2 < length["R"] / length["m"] < 2.6
    assert subseq["backend"] == length["backend"] == "bitpar"
    assert subseq["L"] == length["L"]
    sub = subseq["subsequence"].encode("latin-1")
    assert len(sub) == length["L"]
    for seq in (a, b):
        it = iter(seq)
        assert all(c in it for c in sub)


def test_subseq_lines_mode(tmp_path):
    fa, fb = write_pair(tmp_path, b"alpha\nbeta\ngamma\n", b"alpha\ngamma\ndelta\n")
    proc = run_cli("subseq", fa, fb, "--mode", "lines")
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines() == ["L = 2", "alpha", "gamma"]


# invalid UTF-8, a 3-byte sequence cut at a line end and its tail on the
# next line, CRLF endings, empty lines and repeated lines
AWKWARD_LINES = (b"caf\xc3\xa9\r\n\n\xff\xfe bad\nsnow\xe2\x98\n\x83 tail\r\n"
                 b"\n\xe2\x82\xac euro\n\ncaf\xc3\xa9\n")


def _old_render(lines: list[bytes]) -> str:
    # what lines mode printed when it decoded each line on its own
    return "\n".join(line.decode("utf-8", "replace") for line in lines)


@pytest.mark.parametrize("a, b", [
    (AWKWARD_LINES, AWKWARD_LINES),
    # y distinct: the whole of y is the only LCS
    (AWKWARD_LINES + b"extra\n", b"caf\xc3\xa9\n\n\xff\xfe bad\nsnow\xe2\x98\r\n\x83 tail\n"),
])
def test_subseq_lines_rendering(tmp_path, a, b):
    fa, fb = write_pair(tmp_path, a, b)
    lcs = b.splitlines()
    text = run_cli("subseq", fa, fb, "--mode", "lines")
    assert text.returncode == 0, text.stderr
    assert text.stdout == f"L = {len(lcs)}\n{_old_render(lcs)}\n".encode()
    payload = json.loads(run_cli("subseq", fa, fb, "--mode", "lines", "--output", "json").stdout)
    assert payload["L"] == len(lcs)
    assert payload["subsequence"] == _old_render(lcs)


def test_verify_lines_mode(tmp_path):
    # line tokens reach the dense oracle, the shadow run and every backend
    fa, fb = write_pair(tmp_path, AWKWARD_LINES, b"\n".join(AWKWARD_LINES.splitlines()[::-1]))
    proc = run_cli("verify", fa, fb, "--mode", "lines")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"ok: all backends agree")
    fa, fb = write_pair(tmp_path, b"a\nb\nc\nd\n", b"b\nx\nd\na\n")
    proc = run_cli("verify", fa, fb, "--mode", "lines")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"ok: all backends agree, L = 2\n"
    # y repeats its empty line and R = m: `auto` runs bisect on y's position lists
    fa, fb = write_pair(tmp_path, b"a\n\nb\nc\n", b"a\n\nc\n\n")
    proc = run_cli("verify", fa, fb, "--mode", "lines")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"ok: all backends agree, L = 3\n"


def test_stats(tmp_path):
    fa, fb = write_pair(tmp_path, b"aa", b"aa")
    payload = json.loads(run_cli("stats", fa, fb, "--output", "json").stdout)
    assert payload["R"] == 4 and payload["m"] == 2 and payload["n"] == 2


STATS_PAIRS = {
    "distinct_lines": (b"a\nb\nc\nd\ne\nf\n", b"b\nx\nd\na\nf\ne\n", "lines"),
    "one_repeated_line": (b"a\n\nb\n}\nc\n\n", b"\na\nb\n\nc\n}\n", "lines"),
    "acgt_bytes": (*(bytes(random.Random(s).choices(b"ACGT", k=300)) for s in (7, 8)), "bytes"),
}


def _json_main(capsys, *args) -> dict:
    assert lcseq.cli.main([*args, "--output", "json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", STATS_PAIRS)
def test_stats_and_length_read_one_index(tmp_path, monkeypatch, capsys, name):
    a, b, mode = STATS_PAIRS[name]
    fa, fb = write_pair(tmp_path, a, b)
    stats = _json_main(capsys, "stats", fa, fb, "--mode", mode)
    length = _json_main(capsys, "length", fa, fb, "--mode", mode)
    assert {k: stats[k] for k in ("m", "n", "R")} == {k: length[k] for k in ("m", "n", "R")}
    if name != "distinct_lines":
        return

    def refuse(*args):
        raise AssertionError("stats built position lists for a y of distinct tokens")

    monkeypatch.setattr(lcseq.core, "build_position_lists", refuse)
    monkeypatch.setattr(lcseq.core, "count_matches", refuse)
    monkeypatch.setattr(lcseq.cli, "build_position_lists", refuse, raising=False)
    assert _json_main(capsys, "stats", fa, fb, "--mode", mode) == stats


@pytest.mark.parametrize("mode, pair, kernel, unread", [
    # sigma = 2 lines, R = 20000 for m = n = 200: `length` runs bitpar on y's masks
    ("lines", (b"a\nb\n" * 100, b"b\na\n" * 100), "bitpar", "_symbol_masks"),
    # y repeats a byte, so no column map; one match per row: `length` runs bisect on y's lists
    ("bytes", (bytes(range(100)), b"\x00" + bytes(range(100))), "bisect", "build_position_lists"),
])
def test_stats_builds_no_kernel_index(tmp_path, monkeypatch, capsys, mode, pair, kernel, unread):
    fa, fb = write_pair(tmp_path, *pair)
    length = _json_main(capsys, "length", fa, fb, "--mode", mode)
    assert length["backend"] == kernel

    def refuse(*args):
        raise AssertionError(f"stats built {kernel}'s index")

    monkeypatch.setattr(lcseq.core, unread, refuse)
    assert _json_main(capsys, "stats", fa, fb, "--mode", mode)["R"] == length["R"]


def test_stdin_first_input(tmp_path):
    fb = tmp_path / "b"
    fb.write_bytes(b"bdcaba")
    proc = run_cli("length", "-", str(fb), "--output", "json", stdin=b"abcbdab")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["L"] == 4


def test_stdin_rejected_for_second_input(tmp_path):
    fa = tmp_path / "a"
    fa.write_bytes(b"x")
    proc = run_cli("length", str(fa), "-")
    assert proc.returncode == 2


def test_exit_code_io_error(tmp_path):
    proc = run_cli("length", str(tmp_path / "missing"), str(tmp_path / "missing2"))
    assert proc.returncode == 2
    assert b"error" in proc.stderr


def test_exit_code_usage_error():
    assert run_cli("length").returncode == 2
    assert run_cli("frobnicate").returncode == 2


def test_exit_code_memory_cap(tmp_path):
    fa, fb = write_pair(tmp_path, b"aaaa", b"aaaa")
    proc = run_cli("subseq", fa, fb, "--memory-cap", "8")
    assert proc.returncode == 3
    assert b"16" in proc.stderr  # the measured R is reported


@pytest.mark.parametrize("kind,cap", [("subseq", "-1"), ("verify", "-5")])
def test_negative_memory_cap_is_usage_error(tmp_path, kind, cap):
    fa, fb = write_pair(tmp_path, b"ab", b"cd")  # R = 0, within any cap
    proc = run_cli(kind, fa, fb, "--memory-cap", cap)
    assert proc.returncode == 2
    assert b"usage:" in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert run_cli(kind, fa, fb, "--memory-cap", "0").returncode == 0


def test_out_of_memory_is_resource_error(tmp_path):
    # a MemoryError other than the two cap errors, with no message
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    proc = run_cli_with_failed_allocation("subseq", fa, fb)
    assert proc.returncode == 3
    assert proc.stderr == b"error: out of memory\n"
    assert b"Traceback" not in proc.stderr


def test_missing_numpy_is_one_error_line(tmp_path):
    # only the dense oracle imports numpy; `length`, `subseq` and `stats` run without it
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    no_numpy = "sys.modules['numpy'] = None"
    for argv in (["verify", fa, fb],
                 ["bench", "--n", "8", "--repeats", "1", "--backend", "dp_oracle"]):
        proc = _run_patched_cli(no_numpy, *argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith(b"error: ") and b"numpy" in proc.stderr, argv
        assert proc.stderr.count(b"\n") == 1 and b"Traceback" not in proc.stderr, argv
    for kind in ("length", "subseq", "stats"):
        proc = _run_patched_cli(no_numpy, kind, fa, fb)
        assert proc.returncode == 0, (kind, proc.stderr)


def test_verify_memory_cap(tmp_path):
    fa, fb = write_pair(tmp_path, b"aaaa", b"aaaa")
    proc = run_cli("verify", fa, fb, "--memory-cap", "8")
    assert proc.returncode == 3
    assert proc.stderr.startswith(b"error: ")


def test_verify_ok(tmp_path):
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    proc = run_cli("verify", fa, fb)
    assert proc.returncode == 0
    assert b"ok" in proc.stdout


def test_verify_random_pairs(tmp_path):
    rng = random.Random(99)
    for trial in range(10):
        a = bytes(rng.choice(b"abcd") for _ in range(rng.randint(0, 40)))
        b = bytes(rng.choice(b"abcd") for _ in range(rng.randint(0, 40)))
        fa, fb = write_pair(tmp_path, a, b)
        assert run_cli("verify", fa, fb).returncode == 0


def test_verify_literal_guard_witness(tmp_path):
    # the published guard k < Max(S) skips a mandatory replacement when the
    # successor is the maximum; "ab" vs "ba" exposes the overcount
    fa, fb = write_pair(tmp_path, b"ab", b"ba")
    proc = run_cli_with_literal_guard("verify", fa, fb)
    assert proc.returncode == 1
    assert b"disagreement" in proc.stderr


def test_verify_checks_default_kernel(tmp_path):
    # every named backend and the oracle are right; only the default is off
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    proc = run_cli_with_overcounting_kernel("verify", fa, fb)
    assert proc.returncode == 1
    assert b"length disagreement" in proc.stderr
    assert b"'bisect': 5" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_verify_checks_bitpar_kernel(tmp_path):
    # verify runs bitpar by name even where `auto` would pick bisect
    fa, fb = write_pair(tmp_path, *ONE_PER_ROW)
    proc = run_cli_with_overcounting_bitpar("verify", fa, fb)
    assert proc.returncode == 1
    assert b"length disagreement" in proc.stderr
    assert b"'bitpar': 10" in proc.stderr
    assert b"'bisect': 9" in proc.stderr
    assert b"Traceback" not in proc.stderr


def _distinct_lines_pair(tmp_path):
    """300 unique lines and a copy that drops about 5% of them and adds three; returns L too."""
    rng = random.Random(300)
    a = [b"line %d" % i for i in range(300)]
    b = [line for line in a if rng.random() >= 0.05]
    length = len(b)
    for k in range(3):
        b.insert(rng.randrange(len(b) + 1), b"added %d" % k)
    return (*write_pair(tmp_path, b"\n".join(a) + b"\n", b"\n".join(b) + b"\n"), length)


def test_verify_checks_the_position_list_kernel_on_distinct_y(tmp_path):
    # `auto` takes the column map here; `bisect` by name still runs _threshold_rows
    fa, fb, length = _distinct_lines_pair(tmp_path)
    assert run_cli("verify", fa, fb, "--mode", "lines").stdout == (
        b"ok: all backends agree, L = %d\n" % length)
    proc = run_cli_with_overcounting_kernel("verify", fa, fb, "--mode", "lines")
    assert proc.returncode == 1
    assert b"length disagreement" in proc.stderr
    assert b"'bisect': %d" % (length + 1) in proc.stderr
    assert b"'auto': %d" % length in proc.stderr
    assert b"Traceback" not in proc.stderr


def _last_match_zero(build):
    def wrong(*args):
        trace, _, length = build(*args)
        return trace, 0, length

    return wrong


@pytest.mark.parametrize("name, wrap, failure", [
    ("_distinct_rows", lambda rows: lambda cols: rows(cols) + 1,
     "FAIL: length disagreement: {'auto': %(over)d, "),
    ("_bisect_trace", _last_match_zero,
     "FAIL: reconstruction[bisect]: extracted 0 symbols for L = %(length)d\n"),
    ("_distinct_trace", _last_match_zero,
     "FAIL: reconstruction[auto]: extracted 0 symbols for L = %(length)d\n"),
], ids=["_distinct_rows", "_bisect_trace", "_distinct_trace"])
def test_verify_catches_each_bisect_family_loop_on_distinct_y(
        tmp_path, monkeypatch, capsys, name, wrap, failure):
    fa, fb, length = _distinct_lines_pair(tmp_path)
    monkeypatch.setattr(lcseq.core, name, wrap(getattr(lcseq.core, name)))
    assert lcseq.cli.main(["verify", fa, fb, "--mode", "lines"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(failure % {"over": length + 1, "length": length})
    assert err.count("FAIL: ") == 1


def test_verify_short_extract_fails_each_reconstruction(tmp_path):
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    proc = run_cli_with_short_extract("verify", fa, fb)
    assert proc.returncode == 1
    assert proc.stderr.decode().splitlines() == [
        f"FAIL: reconstruction[{k}]: extracted 0 symbols for L = 4"
        for k in ("auto", "bisect", "bitpar")
    ]


def test_verify_failed_validation_fails_each_reconstruction(tmp_path):
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    proc = run_cli_with_failed_validation("verify", fa, fb)
    assert proc.returncode == 1
    assert proc.stderr.decode().splitlines() == [
        f"FAIL: reconstruction[{k}]: subsequence failed the structural check"
        for k in ("auto", "bisect", "bitpar")
    ]


def test_verify_fails_on_a_match_count_disagreement(tmp_path):
    # bytes mode counts R from y's masks under `auto` and `bitpar`, and from
    # the position lists elsewhere; every L still agrees
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    proc = run_cli_with_overcounting_matches("verify", fa, fb)
    assert proc.returncode == 1
    counts = {"auto": 12, "bisect": 13, "bitpar": 12, "veb": 13, "tree": 13, "array": 13,
              "reconstruct[auto]": 12, "reconstruct[bisect]": 13, "reconstruct[bitpar]": 12}
    assert proc.stderr.decode() == f"FAIL: match count disagreement: {counts}\n"


def test_verify_reports_a_shadow_violation(tmp_path):
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    proc = _run_patched_cli(
        "import lcseq.shadow\n"
        "def violate(self, row, prev_h):\n"
        "    raise lcseq.shadow.InvariantViolation('H decreased across rows', row, 1, 1, 0)\n"
        "lcseq.shadow.ShadowTracker.check_row = violate",
        "verify", fa, fb,
    )
    assert proc.returncode == 1
    assert proc.stderr == (b"FAIL: shadow invariant violation: H decreased across rows "
                           b"at row 1, column 1: expected 1, got 0\n")


def test_verify_above_dense_cap_fails_before_any_backend(tmp_path):
    # a dense pair: the named sets alone would run for minutes before the oracle
    rng = random.Random(8192)
    a, b = (bytes(rng.choice(b"ACGT") for _ in range(8192)) for _ in range(2))
    fa, fb = write_pair(tmp_path, a, b)
    proc = subprocess.run(CLI + ["verify", fa, fb], capture_output=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.startswith(b"error: dense table needs")


def test_verify_above_dense_cap_is_resource_error(tmp_path):
    # (8200 + 1)^2 cells exceed the dense oracle's 2^26 cap
    lines = [b"line %d" % i for i in range(8200)]
    edited = list(lines)
    edited[100] = b"changed"
    fa, fb = write_pair(tmp_path, b"\n".join(lines), b"\n".join(edited))
    proc = run_cli("verify", fa, fb, "--mode", "lines")
    assert proc.returncode == 3
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"error: ")


def test_verify_dense_pair_skips_the_counted_sets(tmp_path):
    # R is about n^2/4 = 1M here; the counted sets took 27.6 s of a verify run
    rng = random.Random(2048)
    a, b = (bytes(rng.choice(b"ACGT") for _ in range(2048)) for _ in range(2))
    fa, fb = write_pair(tmp_path, a, b)
    proc = subprocess.run(CLI + ["verify", fa, fb], capture_output=True, timeout=15)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"ok: all backends agree, L = ")
    assert b" (veb, tree, array skipped: R = " in proc.stdout
    assert proc.stdout.endswith(b" > 262144)\n")


def _spy_verify(monkeypatch, limit, *inputs):
    """In-process `verify` with the counted-set limit at `limit`; returns (exit, names run)."""
    import lcseq.cli as cli

    ran = []
    real = cli.lcs_length

    def spy(x, y, backend="auto", **kwargs):
        ran.append(backend)
        return real(x, y, backend=backend, **kwargs)

    monkeypatch.setattr(cli, "lcs_length", spy)
    monkeypatch.setattr(cli, "VERIFY_SETS_MAX_R", limit)
    return cli.main(["verify", *inputs]), ran


def test_verify_runs_every_backend_up_to_the_set_limit(tmp_path, monkeypatch, capsys):
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")  # R = 12
    code, ran = _spy_verify(monkeypatch, 12, fa, fb)
    assert code == 0 and sorted(ran) == sorted(LENGTH_BACKENDS)
    assert capsys.readouterr().out == "ok: all backends agree, L = 4\n"
    code, ran = _spy_verify(monkeypatch, 11, fa, fb)
    assert code == 0 and ran == ["auto", "bisect", "bitpar"]
    assert capsys.readouterr().out == (
        "ok: all backends agree, L = 4 (veb, tree, array skipped: R = 12 > 11)\n"
    )


def test_verify_runs_the_shadow_probe_up_to_its_limit(tmp_path, monkeypatch, capsys):
    """`verify` runs `shadow_run` on a 256 x 256 pair, and on no pair with a side of 257 tokens."""
    import lcseq.cli as cli
    import lcseq.shadow as shadow

    calls = []
    real = shadow.shadow_run

    def counting(x, y):
        calls.append((len(x), len(y)))
        return real(x, y)

    monkeypatch.setattr(shadow, "shadow_run", counting)
    rng = random.Random(256)
    a, b = (bytes(rng.choices(b"ACGT", k=shadow.DEFAULT_SHADOW_LIMIT)) for _ in range(2))
    outs = []
    # a trailing byte that the other side lacks leaves L as it is
    for pair, expected in (((a, b), [(256, 256)]), ((a + b"Z", b), []), ((a, b + b"Z"), [])):
        calls.clear()
        assert cli.main(["verify", *write_pair(tmp_path, *pair)]) == 0
        assert calls == expected, [len(side) for side in pair]
        outs.append(capsys.readouterr().out)
    assert outs[0].startswith("ok: all backends agree, L = ") and outs == [outs[0]] * 3


def test_verify_failure_reports_the_skipped_sets(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(lcseq.core, "_threshold_rows", overcounting_kernel)
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    code, _ = _spy_verify(monkeypatch, 0, fa, fb)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("FAIL: ") and "'bisect': 5" in err
    assert err.endswith("\n(veb, tree, array skipped: R = 12 > 0)\n")


def test_bench_csv():
    proc = run_cli("bench", "--n", "32", "--sigma", "4", "--repeats", "1")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout.decode())))
    assert len(rows) >= 1
    assert set(rows[0]) >= {"case_id", "backend", "R", "L", "time_ns"}


def test_bench_json():
    proc = run_cli(
        "bench", "--n", "32", "--repeats", "1", "--output", "json", "--backend", "auto,array"
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert isinstance(data, list) and data
    # `auto` rows carry the kernel's name; bench itself checks that the L agree.
    # sigma = 4 is dense (R about n^2/4), so auto runs bitpar
    assert [r["backend"] for r in data] == ["bitpar", "array"] * 3
    # with 10^6 symbols on n <= 64, R is about 0, so auto runs bisect
    proc = run_cli(
        "bench", "--n", "32", "--sigma", "1000000", "--repeats", "1", "--output", "json",
        "--backend", "auto,array",
    )
    assert proc.returncode == 0, proc.stderr
    assert [r["backend"] for r in json.loads(proc.stdout)] == ["bisect", "array"] * 3


def test_bench_kernels_by_name():
    proc = run_cli(
        "bench", "--n", "16", "--repeats", "1", "--output", "json", "--backend", "bisect,bitpar"
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [r["backend"] for r in rows] == ["bisect", "bitpar"] * 3
    # bench checks that both kernels report the same L
    assert all(a["L"] == b["L"] for a, b in zip(rows[::2], rows[1::2]))


@pytest.mark.parametrize(
    "argv",
    [
        ["--repeats", "0"],
        ["--sigma", "0"],
        ["--backend", "foo"],
        ["--backend", "auto,foo"],
        ["--n", "-5"],
    ],
)
def test_bench_bad_values_are_usage_errors(argv):
    proc = run_cli("bench", *argv)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    assert b"usage:" in proc.stderr


def test_bench_backend_selection():
    proc = run_cli(
        "bench", "--n", "16", "--repeats", "1", "--backend", "veb,array"
    )
    rows = list(csv.DictReader(io.StringIO(proc.stdout.decode())))
    # three default sizes, two backends each
    assert len(rows) == 6
    assert {r["backend"] for r in rows} == {"veb", "array"}
    # every name bench takes, the dense oracle included (`auto` rows name its kernel)
    proc = run_cli("bench", "--n", "16", "--repeats", "1", "--backend", ",".join(BENCH_BACKENDS))
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout.decode())))
    assert len(rows) == 3 * len(BENCH_BACKENDS)
    assert {r["backend"] for r in rows} == set(BENCH_BACKENDS) - {"auto"}


def test_bench_disagreement_is_an_error_line():
    proc = run_cli_with_overcounting_kernel(
        "bench", "--n", "8", "--repeats", "1", "--backend", "bisect,array")
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: ") and b"disagree" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_bench_checks_auto_under_the_name_asked_for():
    # `auto` takes the column map on these distinct-y cases and `bisect` the
    # position lists; keyed by the reported name, one L would overwrite the other
    proc = _run_patched_cli(
        "import lcseq.core\n"
        "rows = lcseq.core._distinct_rows\n"
        "lcseq.core._distinct_rows = lambda cols: rows(cols) + 1",
        "bench", "--n", "16", "--sigma", "1000", "--repeats", "1", "--backend", "auto,bisect",
    )
    assert proc.returncode == 1
    assert proc.stderr == b"error: case case0: backends disagree on L: {'auto': 1, 'bisect': 0}\n"


def test_bench_checks_r_under_the_name_asked_for():
    # `auto` counts R with the column map on these distinct-y cases, `bisect` with its lists
    proc = run_cli_with_overcounting_matches(
        "bench", "--n", "16", "--sigma", "1000", "--repeats", "1", "--backend", "auto,bisect")
    assert proc.returncode == 1
    assert proc.stderr == b"error: case case0: backends disagree on R: {'auto': 0, 'bisect': 1}\n"


def test_subseq_short_lcs_is_an_error_line(tmp_path):
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    proc = run_cli_with_short_extract("subseq", fa, fb)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: extracted 0 symbols")
    assert b"Traceback" not in proc.stderr


def test_subseq_failed_validation_is_an_error_line(tmp_path):
    fa, fb = write_pair(tmp_path, b"abcbdab", b"bdcaba")
    proc = run_cli_with_failed_validation("subseq", fa, fb)
    assert proc.returncode == 1
    assert proc.stderr == b"error: reconstructed subsequence failed validation\n"


def test_unencodable_output_is_a_usage_error(tmp_path):
    # the Latin-1 rendering of byte 0xe9 has no ASCII encoding
    fa, fb = write_pair(tmp_path, b"caf\xe9 au lait", b"un caf\xe9 noir")
    env = {**os.environ, "PYTHONIOENCODING": "ascii"}
    proc = subprocess.run(CLI + ["subseq", fa, fb], capture_output=True, timeout=120, env=env)
    assert proc.returncode == 2
    assert proc.stdout == b"L = 6\n"
    assert proc.stderr.startswith(b"error: 'ascii' codec can't encode")
    assert b"Traceback" not in proc.stderr
