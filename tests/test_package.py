"""Rules the package source itself must keep."""

import ast
from pathlib import Path

import spinkac

SOURCES = sorted(Path(spinkac.__file__).parent.glob("*.py"))
PERFBENCH = Path(spinkac.__file__).resolve().parents[2] / "perfbench"

# Public names that nothing in the package or the benchmark calls, each
# with the reason it stays.
NO_CALLER = {
    "diagonal_acceptance": "test oracle: the heat-bath acceptance of a same-slot exchange",
    "product_reference": "test oracle: the collision product by direct summation, n <= 5",
    "detailed_balance_residual": "test oracle: reversibility of the acceptance",
    "write_model": "test oracle: the inverse of parse_model",
    "read_table": "test oracle: the inverse of ResultTable.write",
    "bridge_check": "input of the exact comparison criterion (ROADMAP item 10)",
    "particle_shaped_instance": "input of the exact comparison criterion (ROADMAP item 10)",
    "mean_field_alpha_bound": "input of the exact comparison criterion (ROADMAP item 10)",
    "spectral_gap": "input of the exact comparison criterion (ROADMAP item 10)",
    "ball_factorization_value": "a localization step for the comparison criterion (ROADMAP item 10)",
    "ball_dirichlet_value": "a localization step for the comparison criterion (ROADMAP item 10)",
    "jensen_residual": "a localization step for the comparison criterion (ROADMAP item 10)",
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


def test_quick_suite_leaves_sparse_linalg_unloaded(quick_suite_runs):
    # scipy.sparse.linalg costs about 8 MB of resident memory; only the
    # Lanczos slow mode of chains past core.LANCZOS_STATES imports it, and
    # no chain of the quick suite is that large. The second quick-suite run
    # calls spinkac.cli.main in a fresh interpreter and prints the flag on
    # its last stderr line.
    assert quick_suite_runs[1]["stderr"].splitlines()[-1] == b"False"


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
