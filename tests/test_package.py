import ast
import subprocess
import sys
from pathlib import Path

import pytest

import lcseq


def test_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, lcseq; print([m for m in sys.modules if m.startswith('lcseq.')])"],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"[]"


def test_every_export_resolves():
    assert len(set(lcseq.__all__)) == len(lcseq.__all__)
    for name in lcseq.__all__:
        value = getattr(lcseq, name)
        assert value.__name__ == name
        assert value.__module__.startswith("lcseq.")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from lcseq import *", namespace)
    assert set(lcseq.__all__) <= set(namespace)
    for name in lcseq.__all__:
        assert namespace[name] is getattr(lcseq, name)


def test_dir_lists_every_export():
    listed = dir(lcseq)
    assert set(lcseq.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'dp_traceback'"):
        lcseq.dp_traceback
    assert not hasattr(lcseq, "no_such_name")


def test_package_source_has_no_assert_statement():
    # checks must survive `python -O`, which strips every assert
    sources = sorted(Path(lcseq.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
