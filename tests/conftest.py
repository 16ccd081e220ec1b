"""Fixtures shared by the test modules."""

import os
import sys

import pytest

import slowreg.cli  # with the package, this loads every slowreg module
from slowreg import fanout

# the modules these tests bound at import, whatever re-imports slowreg later
_SLOWREG_MODULES = {
    name: module for name, module in sys.modules.items()
    if name == "slowreg" or name.startswith("slowreg.")
}


@pytest.fixture(autouse=True)
def original_slowreg_modules():
    """Put back the slowreg modules captured at import, so that a fresh copy
    left in `sys.modules` by an earlier test (the benchmark's tests import
    slowreg from scratch) meets no dotted-path monkeypatch."""
    for name in [m for m in sys.modules if m == "slowreg" or m.startswith("slowreg.")]:
        if name not in _SLOWREG_MODULES:
            del sys.modules[name]
    sys.modules.update(_SLOWREG_MODULES)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test ({'running' if pid == 0 else pid})")


@pytest.fixture
def allow_cpus(monkeypatch):
    """`allow_cpus(n)` makes slowreg fork whatever the input size, as if n CPUs
    were allowed (n = 1 runs serially); the real affinity comes back after."""
    real = os.sched_getaffinity(0)

    def allow(n):
        monkeypatch.setattr(fanout, "FORK_FLOOR_BYTES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    yield allow
    os.sched_setaffinity(0, real)


@pytest.fixture
def forks(monkeypatch):
    """The child count of each `fanout.fan_out` call the test makes, in order."""
    counts = []
    fan_out = fanout.fan_out

    def counted(count, work, collect):
        counts.append(count)
        return fan_out(count, work, collect)

    monkeypatch.setattr(fanout, "fan_out", counted)
    return counts
