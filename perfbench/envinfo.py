"""The environment a benchmark run measured on, recorded in every results file.

numpy and scipy each ship their own OpenBLAS build. The thread count of each
is read from the loaded library itself, so a pinning that did not take shows
up as a number other than 1.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

import numpy
import scipy

from run import BLAS_THREAD_VARS

# (package, symbol prefix, symbol suffix) of the OpenBLAS each package bundles
_OPENBLAS = (
    (numpy, "scipy_openblas_", "64_"),
    (scipy, "scipy_openblas_", ""),
)


def _openblas_runtime(package, prefix: str, suffix: str) -> dict:
    """Thread count and config string of the OpenBLAS a package loaded."""
    libs = sorted(glob.glob(os.path.join(os.path.dirname(package.__file__) + ".libs", "*openblas*")))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            get_config = getattr(lib, f"{prefix}get_config{suffix}")
        except (OSError, AttributeError):
            continue
        get_threads.restype = ctypes.c_int
        get_threads.argtypes = []
        get_config.restype = ctypes.c_char_p
        get_config.argtypes = []
        return {
            "library": os.path.basename(path),
            "threads": int(get_threads()),
            "config": get_config().decode(errors="replace"),
        }
    return {"library": None, "threads": None, "config": None}


def _build_blas(package) -> dict:
    try:
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def environment() -> dict:
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        usable_cpus = None
    blas = {}
    for package, prefix, suffix in _OPENBLAS:
        blas[package.__name__] = {
            **_build_blas(package),
            **_openblas_runtime(package, prefix, suffix),
        }
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }
