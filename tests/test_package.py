"""Rules the package source itself must keep."""

import ast
from pathlib import Path

import spinkac

SOURCES = sorted(Path(spinkac.__file__).parent.glob("*.py"))
PERFBENCH = Path(spinkac.__file__).resolve().parents[2] / "perfbench"

# Public names that nothing in the package or the benchmark calls, each
# with the reason it stays.
NO_CALLER = {
    "bridge_check": "input of the exact comparison criterion (ROADMAP item 10)",
    "particle_shaped_instance": "input of the exact comparison criterion (ROADMAP item 10)",
    "mean_field_alpha": "input of the exact comparison criterion (ROADMAP item 10)",
    "spectral_gap": "input of the exact comparison criterion (ROADMAP item 10)",
    "ball_factorization_value": "a step of the localization criterion (ROADMAP item 20)",
    "ball_dirichlet_value": "a step of the localization criterion (ROADMAP item 20)",
    "jensen_residual": "a step of the localization criterion (ROADMAP item 20)",
}


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


def test_quick_suite_loads_no_scipy(quick_suite_runs):
    # SciPy is imported only for the Lanczos slow mode of chains past
    # core.LANCZOS_STATES, and no chain of the quick suite is that large.
    # The second quick-suite run calls spinkac.cli.main in a fresh
    # interpreter with SciPy blocked, so it exits 0 only if no criterion
    # imports it; the golden registry compares its bytes with the
    # goldens. Its last stderr line lists the SciPy modules loaded.
    assert quick_suite_runs[1]["stderr"].splitlines()[-1] == b"[]"


def test_cli_import_loads_no_scipy(package_python):
    # scipy.special alone took 0.26 s to import; the CLI needs none of SciPy
    code = "import sys, spinkac.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    res = package_python(["-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def _public_definitions(tree):
    """Top-level functions and classes of a module and the methods of its
    classes, leading-underscore names left out."""
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [m.name for m in node.body if isinstance(m, ast.FunctionDef)]
        yield from (name for name in names if not name.startswith("_"))


def test_every_public_name_has_a_caller():
    # A name counts as called when some code in the package or in
    # perfbench/ (tests not counted) uses it as a name, an attribute or an
    # import; its own def does not count. Attributes match by name alone,
    # so a method shares callers with every attribute of that name.
    bench = sorted(p for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_"))
    assert bench
    used = set()
    defined = {}
    for path in SOURCES + bench:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
        if path in SOURCES:
            for name in _public_definitions(tree):
                defined.setdefault(name, f"{path.name}:{name}")
    uncalled = {name: where for name, where in defined.items() if name not in used}
    missing = sorted(where for name, where in uncalled.items() if name not in NO_CALLER)
    assert not missing, f"no caller: {missing}"
    # the list shrinks as names gain callers or go
    assert set(NO_CALLER) == set(uncalled)
