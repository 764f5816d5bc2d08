"""Locate the gramscope sources of the checkout this benchmark sits in.

The benchmark runs the package from ``<checkout>/src`` without installing
it, so that it always measures the code next to it. Call ``prepare()``
before numpy is imported: it also fixes the BLAS thread count.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: One client in one process: BLAS always runs single-threaded, whatever the
#: caller's environment says, so every run measures the same configuration.
#: At n=180 one OpenBLAS thread was faster than two on a 2-core host.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSources(RuntimeError):
    """The checkout has no gramscope package under src/."""


def prepare() -> None:
    """Pin BLAS threads and put the checkout's src/ first on sys.path.

    Raises MissingSources when ``src/gramscope`` is absent, so that an
    installed copy elsewhere is never measured by mistake.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "gramscope" / "__init__.py").is_file():
        raise MissingSources(f"no gramscope package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
