import subprocess
import sys

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
