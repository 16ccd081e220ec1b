"""The fork-and-pipe helper: order, errors, dead children, fallbacks."""

import os
import signal
import time
from contextlib import contextmanager

import numpy as np
import pytest

from slowreg import SparsityBudget, WeightError, fanout, grid_search
from slowreg.dataio import read_data_csv, write_data_csv

from util import make_instance


def heads(shares):
    return [share.head() for share in shares]


@contextmanager
def deadline(seconds=30):
    """Raise TimeoutError in the block after `seconds`, so a hang fails the test."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestWorkerCount:
    def test_floor_keeps_small_inputs_serial(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert fanout.worker_count(fanout.FORK_FLOOR_BYTES - 1) == 1
        assert fanout.worker_count(fanout.FORK_FLOOR_BYTES) == 4
        assert fanout.worker_count(fanout.FORK_FLOOR_BYTES, shares=3) == 3

    def test_one_cpu_is_serial(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
        assert fanout.worker_count(1 << 40, shares=7) == 1

    @pytest.mark.parametrize("name", ["fork", "sched_getaffinity"])
    def test_platform_without_fork_or_affinity_is_serial(self, monkeypatch, name):
        monkeypatch.delattr(os, name)
        assert fanout.worker_count(1 << 40, shares=7) == 1


class TestFanOut:
    def test_results_come_back_in_order_from_other_processes(self):
        parent = os.getpid()
        got = fanout.fan_out(3, lambda i: ((i, os.getpid()), None), heads)
        assert [i for i, _ in got] == [0, 1, 2]
        pids = {pid for _, pid in got}
        assert parent not in pids and len(pids) == 3

    def test_arrays_arrive_after_their_heads(self):
        def work(i):
            rows = np.arange(6.0 * i).reshape(-1, 2) + 100 * i
            return rows.shape, rows

        def collect(shares):
            shapes = heads(shares)
            out = [np.empty(shape) for shape in shapes]
            for share, rows in zip(shares, out):
                share.readinto(rows)
            return out

        got = fanout.fan_out(3, work, collect)
        for i, rows in enumerate(got):
            assert rows.tobytes() == (np.arange(6.0 * i).reshape(-1, 2) + 100 * i).tobytes()

    @pytest.mark.parametrize("error", [WeightError("lambda_beta=1e-30 fails"),
                                       ValueError("x.csv:7: bad")])
    def test_child_exception_is_raised_in_the_parent(self, error):
        def work(i):
            if i == 1:
                raise error
            return i, None

        with pytest.raises(type(error)) as info:
            fanout.fan_out(2, work, heads)
        assert type(info.value) is type(error) and str(info.value) == str(error)

    @pytest.mark.parametrize("how", ["exit", "kill"])
    def test_dead_child_raises_instead_of_hanging(self, how):
        def work(i):
            if how == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)

        with deadline(), pytest.raises(RuntimeError, match="ended without a result"):
            fanout.fan_out(2, work, heads)

    def test_parent_error_kills_busy_children(self):
        def collect(shares):
            raise KeyError("parent")

        with deadline(), pytest.raises(KeyError):
            fanout.fan_out(2, lambda i: time.sleep(60), collect)

    def test_short_payload_raises(self):
        def collect(shares):
            heads(shares)
            shares[0].readinto(np.empty(4))

        with pytest.raises(RuntimeError, match="ended mid-result"):
            fanout.fan_out(1, lambda i: (None, np.ones(2)), collect)

    def test_failed_fork_returns_none_and_reaps_earlier_children(self, monkeypatch):
        real_fork = os.fork
        forks = []

        def fork():
            if forks:
                raise OSError("no more processes")
            forks.append(real_fork())
            return forks[-1]

        monkeypatch.setattr(os, "fork", fork)
        with deadline():
            assert fanout.fan_out(3, lambda i: time.sleep(60), heads) is None

    def test_parent_affinity_is_restored(self):
        before = os.sched_getaffinity(0)
        fanout.fan_out(2, lambda i: (i, None), heads)
        assert os.sched_getaffinity(0) == before


def test_failed_fork_falls_back_to_serial_reader_and_grid(tmp_path, allow_cpus,
                                                          monkeypatch):
    instance = make_instance(T=4, D=5, N=10, seed=3)
    budget = SparsityBudget(max_per_vertex=2, max_global=3, max_changes=2)
    path = tmp_path / "train.csv"
    write_data_csv(path, instance.x_blocks, instance.y_blocks)

    def run():
        xs, ys = read_data_csv(path)
        res = grid_search(instance, budget, seed=1)
        return ([a.tobytes() for a in xs + ys], res.table, res.fit.z.tobytes(),
                res.fit.beta.tobytes())

    allow_cpus(1)
    serial = run()

    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    allow_cpus(2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert run() == serial
