"""What slowreg exports and loads of scipy, and the HiGHS binding it relies on.

`scipy.linalg` alone adds about 27 MiB to a process and `scipy.optimize`
more, so the package sticks to numpy at run time. The exact solver's node
LPs run on scipy's HiGHS extension, which `slowreg.highs` loads straight
from its file at the first exact solve; nothing else loads it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import slowreg
from slowreg.dataio import write_data_csv
from slowreg.highs import core

SUBMODULES = ("cli", "dataio", "master", "problem", "stepwise", "graph", "benchmark")
CORE = "scipy.optimize._highspy._core"
HEAVY = ("scipy.linalg", "scipy.optimize")


def run_python(code: str) -> str:
    src = str(Path(slowreg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return out.stdout


def loaded_after(lines: list[str]) -> list[str]:
    """Which of the HiGHS extension and the heavy scipy modules `lines` load."""
    names = (CORE,) + HEAVY
    code = "\n".join(
        ["import sys"] + lines
        + [f"print(' '.join(m for m in {names!r} if m in sys.modules))"]
    )
    return run_python(code).split()


def test_every_export_resolves_and_is_listed_once():
    names = slowreg.__all__
    assert sorted(set(names)) == sorted(names)
    assert [name for name in names if not hasattr(slowreg, name)] == []


def test_import_loads_no_scipy_linalg_or_optimize():
    # the star import also fails here when __all__ names a deleted function
    lines = ["from slowreg import *"] + [f"import slowreg.{name}" for name in SUBMODULES]
    assert loaded_after(lines) == []


@pytest.fixture
def chain_data(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "train.csv"
    write_data_csv(path, [rng.normal(size=(6, 4)) for _ in range(3)],
                   [rng.normal(size=6) for _ in range(3)])
    return str(path)


@pytest.mark.parametrize("command,expected", [("fit", [CORE]), ("gridsearch", [])])
def test_only_fit_loads_the_highs_extension(chain_data, tmp_path, command, expected):
    argv = [command, "--data", chain_data, "--chain", "--kl", "1", "--kg", "2",
            "--kc", "1", "--output", str(tmp_path / "report.json")]
    if command == "fit":
        argv += ["--lambda-beta", "1.0", "--lambda-delta", "1.0"]
    lines = ["from slowreg.cli import main", f"assert main({argv!r}) == 0"]
    assert loaded_after(lines) == expected


def test_highs_extension_is_executed_once():
    # a fresh import of slowreg (as the benchmark does at every set-up) and a
    # later `import scipy.optimize` both reuse the loaded extension
    out = run_python("\n".join([
        "import sys",
        "from slowreg.highs import core",
        "first = core()",
        "for name in [m for m in sys.modules if m.startswith('slowreg')]:",
        "    del sys.modules[name]",
        "from slowreg.highs import core",
        "import scipy.optimize",
        "from scipy.optimize import linprog",
        f"print(core() is first, sys.modules[{CORE!r}] is first,",
        "      linprog([1.0], bounds=[(2.0, 3.0)], method='highs').x[0])",
    ]))
    assert out.split() == ["True", "True", "2.0"]


# every attribute of scipy's HiGHS binding that slowreg.highs uses
BINDING = {
    "": ("_Highs", "HighsBasis", "HighsBasisStatus", "HighsModelStatus",
         "HighsStatus", "HighsSolution", "HighsInfo"),
    "_Highs": ("setOptionValue", "addCols", "addRows", "addRow",
               "changeColsBounds", "setBasis", "getBasis", "run",
               "getModelStatus", "modelStatusToString", "getInfo",
               "getSolution", "getObjectiveValue", "getRunTime"),
    "HighsBasis": ("valid", "alien", "col_status", "row_status"),
    "HighsBasisStatus": ("kBasic",),
    "HighsModelStatus": ("kOptimal", "kInfeasible", "kTimeLimit", "kNotset"),
    "HighsStatus": ("kError",),
    "HighsSolution": ("col_value", "row_dual"),
    "HighsInfo": ("simplex_iteration_count",),
}


def test_highs_binding_has_every_attribute_the_adapter_uses():
    hc = core()
    missing = []
    for owner_name, names in BINDING.items():
        owner = getattr(hc, owner_name, None) if owner_name else hc
        missing += [f"{owner_name or CORE}.{name}" for name in names
                    if owner is None or not hasattr(owner, name)]
    assert not missing, (
        f"scipy {scipy.__version__} moved parts of its HiGHS binding that "
        f"slowreg.highs uses: {', '.join(missing)}"
    )
