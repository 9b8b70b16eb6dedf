"""The golden registry: every committed output the CLI must reproduce
byte for byte, and the conditions it holds on.

A condition is an environment for the child process that runs a row:
- default: this machine's BLAS kernels and NumPy dispatch;
- Haswell, SandyBridge: OPENBLAS_CORETYPE makes NumPy's bundled
  OpenBLAS use the kernels it would pick on another x86 CPU (AVX2, AVX);
- numpy-baseline: NPY_DISABLE_CPU_FEATURES switches off every dispatch
  target of this NumPy, so its loops run at the build's baseline.

Each row names the conditions it was measured to hold on; a golden that
stops holding somewhere is a changed row. The child runs the row's argv
from the repository root (the headers store model paths as given) with
SciPy blocked (`CLI_MAIN_CHILD`), and writes its table with `--out`.
"""

import platform
from pathlib import Path
from typing import NamedTuple

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__

from conftest import CLI_MAIN_CHILD, REPO

DATA = REPO / "tests" / "data"


class Golden(NamedTuple):
    argv: tuple
    table: str  # the --out golden under tests/data
    stdout: str | None  # the stdout golden, where stdout is pinned
    holds: tuple  # the conditions it holds on


ROWS = {
    "evolve": Golden(
        ("evolve", "--model", "tests/data/demo-n2.model", "--t-end", "2", "--dt", "0.01"),
        "demo-n2-evolve.csv", None, ("default", "Haswell")),
    # the stream route at n = 8, written by the one-buffer product; the
    # couplings differ, so every site pair has its own acceptance block
    "evolve-m8": Golden(
        ("evolve", "--model", "tests/data/m8.model", "--t-end", "0.5", "--dt", "0.05"),
        "m8-evolve.csv", None, ("default",)),
    # the flux route at n = 7: one (n 2^n, 2^n) table per context, one
    # matvec with it and one gather per product
    "evolve-m7": Golden(
        ("evolve", "--model", "tests/data/m7.model", "--t-end", "0.5", "--dt", "0.05"),
        "m7-evolve.csv", None, ("default", "numpy-baseline")),
    "chaos": Golden(
        ("chaos", "--model", "tests/data/demo-n2.model", "--k", "2",
         "--N-grid", "8,16,32,64,128,256"),
        "demo-n2-chaos.csv", None, ("default", "Haswell", "SandyBridge", "numpy-baseline")),
    "kac": Golden(
        ("kac", "--model", "tests/data/demo-n2.model", "--N", "3", "--t-end", "10",
         "--seed", "5"),
        "kac-demo.csv", None, ("default", "Haswell", "SandyBridge", "numpy-baseline")),
    "kac-mlsi": Golden(
        ("kac-mlsi", "--model", "tests/data/demo-n2.model", "--N", "2,3", "--trials", "40",
         "--seed", "5"),
        "kac-mlsi-demo.csv", None, ("default", "Haswell", "SandyBridge")),
    "factorize": Golden(
        ("downup", "--blocks-spec", "5:1,5:-1,4:0", "--w", "tests/data/w14.field",
         "--mode", "factorize", "--trials", "100", "--seed", "3"),
        "downup-factorize-blocks.csv", None, ("default", "Haswell", "SandyBridge")),
    # written by the sampler that drew one scalar exponential per node
    "tree": Golden(
        ("tree", "--model", "tests/data/demo-n2.model", "--t", "0.5", "--samples", "2000",
         "--seed", "4"),
        "demo-n2-tree.csv", None, ("default", "Haswell", "numpy-baseline")),
    # read from the two runs of the quick_suite_runs fixture, not run again
    "quick": Golden(
        ("verify-all", "--quick"),
        "verify-all-quick.csv", "verify-all-quick.txt", ("default",)),
}


def cpu_flags():
    """The flags of the first CPU in /proc/cpuinfo; empty where there is none."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in text.splitlines()
                 if line.startswith("flags")), set())


# NumPy raises at import if NPY_DISABLE_CPU_FEATURES names a baseline
# feature, and the names differ between NumPy versions, so numpy
# baseline names this NumPy's own dispatch targets
CONDITIONS = {
    "default": {},
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "SandyBridge": {"OPENBLAS_CORETYPE": "SandyBridge"},
    "numpy-baseline": {"NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)},
}
# the CPU flag each OpenBLAS kernel family needs
CPU_FLAG = {"Haswell": "avx2", "SandyBridge": "avx"}


@pytest.mark.parametrize("name, condition",
                         [(name, c) for name, row in ROWS.items() for c in row.holds])
def test_golden_holds(name, condition, request, package_python, tmp_path):
    row = ROWS[name]
    flag = CPU_FLAG.get(condition)
    if flag and (platform.machine() not in ("x86_64", "AMD64") or flag not in cpu_flags()):
        pytest.skip(f"the {condition} kernels need an x86-64 CPU with {flag}")
    if name == "quick":
        assert condition == "default", "the quick-suite runs take the default condition"
        runs = request.getfixturevalue("quick_suite_runs")
    else:
        out = tmp_path / "out.csv"
        res = package_python(["-c", CLI_MAIN_CHILD, *row.argv, "--out", str(out)],
                             extra_env=CONDITIONS[condition], cwd=REPO, capture_output=True)
        assert res.returncode == 0, res.stderr.decode()
        runs = [{"table": out.read_bytes(), "stdout": res.stdout}]
    for run in runs:
        assert run["table"] == (DATA / row.table).read_bytes()
        if row.stdout:
            assert run["stdout"] == (DATA / row.stdout).read_bytes()


def test_every_golden_file_has_one_row():
    # a new golden under tests/data cannot skip the registry, and every
    # golden a row names exists
    named = sorted(g for row in ROWS.values() for g in (row.table, row.stdout) if g)
    files = sorted(p.name for p in DATA.iterdir() if p.suffix in (".csv", ".txt"))
    assert named == files
