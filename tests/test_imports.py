"""The package runs on numpy and the standard library alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "gramscope"

PROBE = """
import sys
before = set(sys.modules)
import gramscope, gramscope.cli, gramscope.theory
print("\\n".join(sorted({m.partition(".")[0] for m in set(sys.modules) - before})))
"""


def run_fresh(code: str) -> str:
    """stdout of ``code`` in a fresh interpreter, so modules imported by the
    test runner do not hide what the package imports."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout


def test_imports_only_numpy_and_stdlib():
    # names with a leading underscore are interpreter or stdlib internals
    out = run_fresh(PROBE).split()
    assert "gramscope" in out
    allowed = set(sys.stdlib_module_names) | {"numpy", "gramscope"}
    assert [m for m in out if m not in allowed and not m.startswith("_")] == []


def test_cli_leaves_out_the_process_pool():
    # only a parallel batch imports the pool, and multiprocessing with it
    out = run_fresh("import sys, gramscope.cli; print('concurrent.futures.process' in sys.modules)")
    assert out.strip() == "False"


def imported_modules(tree: ast.AST):
    """Dotted names of the modules and names an AST imports: ``import a.b``
    gives a.b, ``from a import b`` gives a.b."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_one_module_binds_private_numpy():
    # hermitian.py calls numpy's LAPACK gufuncs without the numpy.linalg
    # wrappers; a numpy upgrade that moves them has that one place to fix
    private = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = imported_modules(ast.parse(path.read_text(), str(path)))
        found = sorted(
            name
            for name in names
            if name.split(".")[0] == "numpy" and any(p.startswith("_") for p in name.split("."))
        )
        if found:
            private[path.name] = found
    assert private == {"hermitian.py": ["numpy.linalg._umath_linalg"]}


def test_no_module_imports_a_name_it_never_uses():
    # a deletion that leaves its import behind fails here; __init__.py
    # imports names to export them, so it is left out
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if bound - used:
            unused[path.name] = sorted(bound - used)
    assert unused == {}


def test_all_lists_exactly_the_names_init_imports():
    # a deleted function cannot leave a stale export behind: every name in
    # __all__ is one that __init__.py imports, and each of them resolves
    import gramscope

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(gramscope.__all__) == sorted(imported)
    assert len(set(gramscope.__all__)) == len(gramscope.__all__)
    for name in gramscope.__all__:
        assert getattr(gramscope, name) is not None
