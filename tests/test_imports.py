"""What slowreg exports and loads of scipy, and the scipy bindings it relies on.

`scipy.linalg` alone adds about 27 MiB to a process and `scipy.optimize`
more, so slowreg imports neither package. It loads two of their extension
modules straight from their files (`slowreg.extensions.load`): the LAPACK
wrappers when slowreg is imported, and HiGHS at the first exact solve
(`fit`, `synth`).
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
from slowreg.extensions import lapack
from slowreg.highs import core

SUBMODULES = ("cli", "dataio", "master", "problem", "stepwise", "graph", "benchmark")
CORE = "scipy.optimize._highspy._core"
FLAPACK = "scipy.linalg._flapack"
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
    """Which of the two extensions and the heavy scipy modules `lines` load."""
    names = (CORE, FLAPACK) + HEAVY
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
    assert loaded_after(lines) == [FLAPACK]


@pytest.fixture
def chain_data(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "train.csv"
    write_data_csv(path, [rng.normal(size=(6, 4)) for _ in range(3)],
                   [rng.normal(size=6) for _ in range(3)])
    return str(path)


@pytest.mark.parametrize("command,expected", [
    ("fit", [CORE, FLAPACK]),
    ("gridsearch", [FLAPACK]),
    ("synthetic-gridsearch", [FLAPACK]),
])
def test_only_fit_loads_the_highs_extension(chain_data, tmp_path, command, expected):
    # gridsearch makes SPD solves only; fit also runs the exact solver. A
    # synthetic response whose root bound HiGHS would read as infinite is
    # refused by the exact solver alone, so gridsearch fits it
    data = ["--data", chain_data, "--chain", "--kl", "1", "--kg", "2", "--kc", "1"]
    argv = {
        "fit": ["fit", *data, "--lambda-beta", "1.0", "--lambda-delta", "1.0"],
        "gridsearch": ["gridsearch", *data],
        "synthetic-gridsearch": ["gridsearch", "--n", "4", "--t", "3", "--d", "3",
                                 "--kl", "1", "--kc", "1", "--xi", "1e-150"],
    }[command] + ["--output", str(tmp_path / "report.json")]
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


def test_lapack_extension_is_executed_once():
    # as for HiGHS: re-imports of slowreg and a later `import scipy.linalg`
    # reuse the module loaded at the first import
    out = run_python("\n".join([
        "import sys",
        "import slowreg",
        f"first = sys.modules[{FLAPACK!r}]",
        "for name in [m for m in sys.modules if m.startswith('slowreg')]:",
        "    del sys.modules[name]",
        "from slowreg.extensions import lapack",
        "import scipy.linalg",
        f"print(lapack is first, sys.modules[{FLAPACK!r}] is first,",
        "      scipy.linalg.cho_solve(scipy.linalg.cho_factor([[1.0, 0], [0, 1]]), [3.0, 4.0])[1])",
    ]))
    assert out.split() == ["True", "True", "4.0"]


# every LAPACK routine that slowreg.blocktri and slowreg.stepwise call
LAPACK_ROUTINES = ("dpotrf", "dposv", "dpbsv")


def test_lapack_binding_has_every_routine_slowreg_calls():
    missing = [name for name in LAPACK_ROUTINES if not hasattr(lapack, name)]
    assert not missing, (
        f"scipy {scipy.__version__} has no {', '.join(missing)} in {FLAPACK}"
    )


# every attribute of scipy's HiGHS binding that slowreg.highs uses, and the
# info fields it reads through getInfoValue
BINDING = {
    "": ("_Highs", "HighsBasis", "HighsBasisStatus", "HighsModelStatus",
         "HighsStatus", "HighsSolution"),
    "_Highs": ("setOptionValue", "addCols", "addRows", "changeColsBounds",
               "setBasis", "getBasis", "run",
               "getModelStatus", "modelStatusToString", "getInfoValue",
               "getSolution", "getObjectiveValue", "getRunTime"),
    "HighsBasis": ("valid", "alien", "col_status", "row_status"),
    "HighsBasisStatus": ("kBasic",),
    "HighsModelStatus": ("kOptimal", "kInfeasible", "kTimeLimit", "kNotset"),
    "HighsStatus": ("kError",),
    "HighsSolution": ("col_value", "row_dual"),
}
INFO_VALUES = ("simplex_iteration_count",)


def test_highs_binding_has_every_attribute_the_adapter_uses():
    hc = core()
    missing = []
    for owner_name, names in BINDING.items():
        owner = getattr(hc, owner_name, None) if owner_name else hc
        missing += [f"{owner_name or CORE}.{name}" for name in names
                    if owner is None or not hasattr(owner, name)]
    # slowreg.highs reads info after a run; on a fresh instance the answer
    # depends on leftover heap contents (kWarning for most instances made
    # after other allocations), so a one-column LP is run first
    highs = hc._Highs()
    highs.setOptionValue("output_flag", False)
    empty = np.zeros(0, dtype=np.int32)
    highs.addCols(1, np.ones(1), np.zeros(1), np.ones(1), 0, empty, empty, np.zeros(0))
    highs.run()
    missing += [f"info value {name!r}" for name in INFO_VALUES
                if highs.getInfoValue(name)[0] != hc.HighsStatus.kOk]
    assert not missing, (
        f"scipy {scipy.__version__} moved parts of its HiGHS binding that "
        f"slowreg.highs uses: {', '.join(missing)}"
    )
