"""Forked workers: who runs in process, byte identity at every worker
count, and no process left behind, even when a worker fails."""

import dataclasses
import os
import threading
import time

import pytest

from qdcsim import cli, lockstep
from qdcsim import protocol as P
from qdcsim import security as S
from qdcsim.dynamics import PhysicalParams
from qdcsim.protocol import DetectorModel, RoundConfig

CONFIG = RoundConfig(
    params=PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=0.2), t_window=6.0, p_check=0.25,
    detector=DetectorModel(efficiency=0.9, dark_prob=0.05), seed=5,
)
N_SPANS = 9
N_ROUNDS = (N_SPANS - 1) * lockstep.SPAN + 300  # the last span is short


@pytest.fixture()
def many_cpus(monkeypatch):
    """16 usable CPUs, whatever the host has, so that 9 workers start."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)


@pytest.fixture()
def no_fork(monkeypatch, many_cpus):
    def fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", fork)


@pytest.fixture()
def forks(monkeypatch):
    """Counts the processes started (the calls run in this process)."""
    started = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return started


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerCount:
    def test_capped_by_cpus_without_starting_them(self, monkeypatch, no_fork):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4096)))
        assert lockstep.worker_count(10_000, 1 << 20, 1 << 30) == 4096

    def test_capped_by_units_and_requested(self, no_fork):
        assert lockstep.worker_count(10_000, 3, 1 << 30) == 3
        assert lockstep.worker_count(5, 100, 1 << 30) == 5
        assert lockstep.worker_count(1, 100, 1 << 30) == 1

    def test_below_break_even_in_process(self, no_fork):
        assert lockstep.worker_count(8, 100, lockstep.BREAK_EVEN_ROUNDS - 1) == 1
        assert lockstep.worker_count(8, 100, lockstep.BREAK_EVEN_ROUNDS) == 8

    def test_without_fork_in_process(self, monkeypatch, many_cpus):
        monkeypatch.delattr(os, "fork")
        assert lockstep.worker_count(8, 100, 1 << 30) == 1

    def test_other_threads_in_process(self, no_fork):
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(30,))
        thread.start()
        try:
            assert lockstep.worker_count(8, 100, 1 << 30) == 1
        finally:
            done.set()
            thread.join(30)
        assert not thread.is_alive()
        assert lockstep.worker_count(8, 100, 1 << 30) == 8


class TestInProcess:
    def test_on_round(self, no_fork):
        seen = []
        stats = P.run_batch(CONFIG, 3 * lockstep.SPAN, workers=8,
                            on_round=lambda i, out: seen.append(i))
        assert seen == list(range(3 * lockstep.SPAN))
        assert stats.n_rounds == len(seen)

    def test_one_unit(self, no_fork):
        assert lockstep.fork_map(lambda u: u + 1, [41], 8) == [42]
        rows = P.run_sweep(CONFIG, [2.0], 2 * lockstep.BREAK_EVEN_ROUNDS, workers=8)
        assert len(rows) == 1

    def test_single_span(self, no_fork):
        assert P.run_batch(CONFIG, lockstep.SPAN, workers=8).n_rounds == lockstep.SPAN

    def test_without_fork(self, monkeypatch, many_cpus):
        monkeypatch.delattr(os, "fork")
        log = []
        P.run_batch(CONFIG, N_ROUNDS, workers=8, on_log=log.extend)
        assert len(log) == N_ROUNDS


class TestForkMap:
    def test_shares_in_unit_order(self, forks):
        got = lockstep.fork_map(lambda u: (u, os.getpid()), range(7), 3)
        assert [u for u, _ in got] == list(range(7))
        pids = [pid for _, pid in got]
        assert pids[:3] == [os.getpid()] * 3  # the caller runs the first, largest share
        assert pids[3] == pids[4] != pids[5] == pids[6]
        assert len(forks) == 2
        no_child_left()


def batch(workers):
    log = []
    stats = P.run_batch(CONFIG, N_ROUNDS, workers=workers, on_log=log.extend)
    return dataclasses.replace(stats, wall_time_s=0.0), log


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [2, 9])
    def test_batch(self, workers, many_cpus, forks):
        stats, log = batch(workers)
        assert len(forks) == workers - 1
        assert (stats, log) == batch(1)
        assert len(log) == N_ROUNDS
        no_child_left()

    def test_security_summary(self, many_cpus, forks):
        cfg = dataclasses.replace(CONFIG, p_check=0.0)
        eve = S.EveModel("intercept_resend_photon")
        n_rounds = lockstep.BREAK_EVEN_ROUNDS // 4 + 1
        one = S.security_summary(cfg, n_rounds, 3, eve)
        assert not forks
        for workers in (2, 9):
            assert S.security_summary(cfg, n_rounds, 3, eve, workers=workers) == one
        assert len(forks) == 1 + 3
        no_child_left()

    def test_sweep(self, many_cpus, forks):
        windows = [0.5, 1.0, 2.0, 4.0, 6.0]
        n_rounds = lockstep.BREAK_EVEN_ROUNDS // 5 + 1
        one = P.run_sweep(CONFIG, windows, n_rounds)
        for workers in (2, 9):
            assert P.run_sweep(CONFIG, windows, n_rounds, workers=workers) == one
        assert len(forks) == 1 + 4
        no_child_left()


class TestFailure:
    def test_child_exception_raised_here(self, many_cpus):
        def task(u):
            if u == 3:
                raise KeyError("unit 3")
            return u

        with pytest.raises(KeyError, match="unit 3"):
            lockstep.fork_map(task, range(4), 2)
        no_child_left()

    def test_child_without_result(self, many_cpus):
        def task(u):
            if u == 3:
                os._exit(7)
            return u

        with pytest.raises(RuntimeError, match="without a result"):
            lockstep.fork_map(task, range(4), 2)
        no_child_left()

    def test_children_killed_when_the_caller_fails(self, many_cpus):
        def task(u):
            if u == 0:
                raise KeyError("unit 0")
            time.sleep(60)

        start = time.perf_counter()
        with pytest.raises(KeyError, match="unit 0"):
            lockstep.fork_map(task, range(3), 3)
        assert time.perf_counter() - start < 30
        no_child_left()

    def test_fork_failure(self, monkeypatch, many_cpus):
        real, started = os.fork, []

        def fork():  # the second fork fails, as under a process limit
            if started:
                raise BlockingIOError("no more processes")
            pid = real()
            started.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        with pytest.raises(BlockingIOError):
            lockstep.fork_map(lambda u: u, range(3), 3)
        assert len(started) == 1
        no_child_left()
        if fds is not None:
            assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("failing_span", [0, N_SPANS - 1])  # the caller's share, a child's
    def test_cli_exits_3(self, failing_span, monkeypatch, many_cpus, tmp_path, capsys):
        span_part = P._span_part

        def broken(plan, seed, span, *args):
            if span[0] == failing_span * lockstep.SPAN:
                raise ValueError("broken span")
            return span_part(plan, seed, span, *args)

        monkeypatch.setattr(P, "_span_part", broken)
        code = cli.main(["batch", "--rounds", str(N_ROUNDS), "--threads", "4", "--round-log",
                         "--out", str(tmp_path)])
        assert code == 3
        assert "internal error: ValueError: broken span" in capsys.readouterr().err
        no_child_left()
