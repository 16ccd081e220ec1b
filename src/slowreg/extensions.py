"""scipy's compiled extensions, loaded from their files under their own names.

slowreg uses two of them: HiGHS (`scipy.optimize._highspy._core`) for the
exact solver's node LPs and the LAPACK wrappers (`scipy.linalg._flapack`)
for its SPD solves. Importing `scipy.linalg` costs about 27 MiB and
`scipy.optimize` more, so `load` executes just the extension's file and
registers it under its package name; neither package is imported, and a
later import of one reuses the module. Each extension is thus executed at
most once per process: HiGHS at the first exact solve, LAPACK with slowreg.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path


def load(name: str):
    """The extension module `name`, such as "scipy.linalg._flapack"."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy_spec = importlib.util.find_spec("scipy")  # locates, does not import
    if scipy_spec is None:
        raise ImportError(f"slowreg needs scipy for its extension {name}")
    *package, stem = name.split(".")[1:]
    folder = Path(scipy_spec.submodule_search_locations[0], *package)
    paths = [folder / f"{stem}{s}" for s in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.exists()), None)
    if path is None:
        raise ImportError(f"scipy's extension {name} is not in {folder}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


# scipy's LAPACK wrappers (slowreg calls dposv, dpbsv and, in cho_factor, dpotrf),
# loaded with slowreg: the libraries behind them (OpenBLAS, gfortran) keep
# heap blocks from their load on, and loaded in the middle of a solve those
# pin the top of the heap, so that glibc cannot return the solve's freed
# memory (25 MiB stayed resident after a T=100, D=200 grid search)
lapack = load("scipy.linalg._flapack")
