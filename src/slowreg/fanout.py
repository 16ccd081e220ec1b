"""Fork-and-pipe fan-out over the CPUs this process may run on.

`worker_count` says how many processes should share a job: one, meaning
run serially, without `os.fork` or `os.sched_getaffinity`, on a single
allowed CPU, or for an input under `FORK_FLOOR_BYTES`, where a fork costs
more than it saves. `fan_out` forks the children. Child i runs `work(i)`,
which returns a picklable head and a contiguous array or None; the child
writes the pickled head, then the array's raw bytes, down its own pipe and
ends in `os._exit`. An exception raised by `work` is sent in place of the
head and raised again in the parent when that head is read. A child's
memory is its own, so it does not count in the parent's RSS.
"""

from __future__ import annotations

import os
import pickle
import signal

import numpy as np

# below this many input bytes a job runs serially: on a 2-CPU VM a fan-out
# cost about 8-10 ms in a 90 MiB process, and a forked CSV parse lost at
# 0.46 MiB of file and won from 1 MiB on
FORK_FLOOR_BYTES = 1 << 20


def worker_count(size: int, shares: int | None = None) -> int:
    """Processes for a job on `size` input bytes split into at most `shares` parts."""
    if size < FORK_FLOOR_BYTES or not hasattr(os, "fork") or not hasattr(
        os, "sched_getaffinity"
    ):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return cpus if shares is None else min(cpus, shares)


class Share:
    """The parent's end of one child's pipe."""

    def __init__(self, pid: int, fd: int):
        self.pid = pid
        self.pipe = os.fdopen(fd, "rb")

    def head(self):
        """The child's head; raises the child's exception, or RuntimeError if it died."""
        try:
            error, head = pickle.load(self.pipe)
        except Exception:  # no message, or a cut-off one
            raise RuntimeError(f"worker process {self.pid} ended without a result") from None
        if error is not None:
            raise error
        return head

    def readinto(self, array: np.ndarray) -> None:
        """Fill a contiguous array with the raw bytes the child sent after its head."""
        view = array.reshape(-1).view(np.uint8)
        while view.size:
            got = self.pipe.readinto(view)
            if not got:
                raise RuntimeError(f"worker process {self.pid} ended mid-result")
            view = view[got:]


def fan_out(count: int, work, collect):
    """Fork `count` children running `work(0..count-1)`; return `collect(shares)`.

    `collect` runs in the parent and reads the shares in any order. Returns
    None, with no child left, when a pipe or a fork fails. Every child is
    reaped before this returns; if `collect` raises, they are killed first.
    """
    shares: list[Share] = []
    done = False
    cpus = sorted(os.sched_getaffinity(0))
    mask = set(cpus)
    try:
        for i in range(count):
            try:
                read, write = os.pipe()
            except OSError:
                return None
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                return None
            if pid == 0:
                _child(write, work, i, cpus[(i + 1) % len(cpus)])
            os.close(write)
            shares.append(Share(pid, read))
        _pin({cpus[0]})
        result = collect(shares)
        done = True
        return result
    finally:
        _pin(mask)
        for share in shares:
            share.pipe.close()
            if not done:
                os.kill(share.pid, signal.SIGKILL)
        for share in shares:
            os.waitpid(share.pid, 0)


def _pin(cpus: set[int]) -> None:
    """Bind the calling thread to `cpus`.

    Without it the kernel may leave a fresh child on its parent's CPU for
    as long as a second (seen on a 2-CPU VM), and the fan-out is then as
    slow as a serial run.
    """
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _child(fd: int, work, i: int, cpu: int):
    """Run share i on `cpu` and write its result down `fd`; never returns."""
    code = 1
    try:
        _pin({cpu})
        with os.fdopen(fd, "wb") as out:
            payload = None
            try:
                head, payload = work(i)
                message = pickle.dumps((None, head))
            except BaseException as exc:  # sent to the parent; the child only exits
                try:
                    message = pickle.dumps((exc, None))
                except Exception:
                    message = pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"), None))
            out.write(message)
            if payload is not None:
                out.write(payload.reshape(-1).view(np.uint8))
        code = 0
    finally:
        os._exit(code)
