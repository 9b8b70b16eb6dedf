"""Rules the package source itself must keep."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import spinkac

SOURCES = sorted(Path(spinkac.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise real errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert not found, f"assert statements in the package: {found}"


def test_quick_suite_leaves_sparse_linalg_unloaded():
    # scipy.sparse.linalg costs about 8 MB of resident memory; only the
    # Lanczos slow mode of chains past core.LANCZOS_STATES imports it
    root = str(Path(spinkac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    code = ("import io, sys\n"
            "from spinkac import verify\n"
            "verify.run_all(quick=True, workers=1, stream=io.StringIO(), err=io.StringIO())\n"
            "print('scipy.sparse.linalg' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
