"""Shared fixtures."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spinkac

# the directory holding the spinkac package this test process imported
PACKAGE_ROOT = str(Path(spinkac.__file__).resolve().parents[1])
REPO = Path(__file__).resolve().parents[1]

# Blocks SciPy (a None entry in sys.modules makes every `import scipy...`
# raise ImportError), calls spinkac.cli.main on its arguments, then prints
# on the last line of stderr the SciPy modules that got loaded all the
# same, and exits with main's code.
CLI_MAIN_CHILD = (
    "import sys\n"
    "sys.modules['scipy'] = None\n"
    "from spinkac import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(sorted(m for m, v in sys.modules.items() if m.startswith('scipy') and v),"
    " file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.fixture(scope="session")
def package_python():
    """Run this interpreter in a child process, ``python ARGS``.

    The child puts the package under test first on its ``PYTHONPATH``, so
    it checks the same code as the rest of the suite and needs no console
    script on ``PATH``. ``extra_env`` adds variables to the child's
    environment.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
    )

    def run(args, extra_env=None, **kwargs):
        return subprocess.run([sys.executable, *args], env={**env, **(extra_env or {})},
                              **kwargs)

    return run


@pytest.fixture(scope="session")
def quick_suite_runs(package_python, tmp_path_factory):
    """``verify-all --quick --out`` run twice per test session, once
    through the CLI entry module with ``--workers 2``, so the criteria
    run in a process pool on every machine, and once through
    ``spinkac.cli.main`` in a fresh interpreter (``CLI_MAIN_CHILD``) with
    ``--workers 1`` and SciPy blocked, so that every criterion of the
    second run runs in the interpreter whose modules it reports, and a
    criterion that imported SciPy would fail it.

    Returns one dict per run with the keys ``stdout``, ``stderr`` (bytes),
    ``table`` (the ``--out`` bytes) and ``seconds``. Every test that reads
    the quick suite's output shares these two runs.
    """
    tmp = tmp_path_factory.mktemp("quick-suite")
    runs = []
    launches = ((["-m", "spinkac.cli"], "2"), (["-c", CLI_MAIN_CHILD], "1"))
    for i, (launch, workers) in enumerate(launches):
        out = tmp / f"run{i}.csv"
        t0 = time.perf_counter()
        res = package_python(
            [*launch, "verify-all", "--quick", "--workers", workers, "--out", str(out)],
            cwd=REPO, capture_output=True,
        )
        seconds = time.perf_counter() - t0
        assert res.returncode == 0, res.stderr.decode()
        runs.append({"stdout": res.stdout, "stderr": res.stderr,
                     "table": out.read_bytes(), "seconds": seconds})
    return runs
