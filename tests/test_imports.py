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


def test_imports_only_numpy_and_stdlib():
    # a fresh interpreter, so modules imported by the test runner do not hide
    # an undeclared dependency (multiprocessing adds __mp_main__)
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True, env=env
    ).stdout.split()
    assert "gramscope" in out
    allowed = set(sys.stdlib_module_names) | {"numpy", "gramscope"}
    assert [m for m in out if m not in allowed and not m.startswith("_")] == []
