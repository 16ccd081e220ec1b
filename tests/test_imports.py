"""Importing slowreg must not pull in scipy's heavy submodules.

`scipy.linalg` alone adds about 27 MiB to a process and `scipy.optimize`
more, so the package sticks to numpy at run time.
"""

import os
import subprocess
import sys
from pathlib import Path

import slowreg

SUBMODULES = ("cli", "dataio", "master", "problem", "stepwise", "graph", "benchmark")
HEAVY = ("scipy.linalg", "scipy.optimize")


def test_import_loads_no_scipy_linalg_or_optimize():
    src = str(Path(slowreg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    code = "\n".join(
        ["import sys", "import slowreg"]
        + [f"import slowreg.{name}" for name in SUBMODULES]
        + [f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"]
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.split() == []
