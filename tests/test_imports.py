"""The package runs on numpy and the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
