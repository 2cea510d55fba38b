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
N_ROUNDS = 8 * lockstep.SPAN + 300  # 9 units of SPAN rounds, the last short: at most 9 processes


@pytest.fixture()
def no_fork(monkeypatch, many_cpus):
    def fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", fork)


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

    def test_one_range_through_fork_map(self, monkeypatch, no_fork):
        # at one worker a batch is one range, which fork_map runs in process;
        # on_log gets its lines as one list
        calls, fork_map = [], lockstep.fork_map

        def recorded(task, units, workers):
            calls.append((list(units), workers))
            return fork_map(task, units, workers)

        monkeypatch.setattr(lockstep, "fork_map", recorded)
        lists = []
        P.run_batch(CONFIG, N_ROUNDS, on_log=lists.append)
        assert calls == [([(0, N_ROUNDS)], 1)]
        assert [len(lines) for lines in lists] == [N_ROUNDS]


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

    def test_one_log_list_per_range(self, many_cpus, forks):
        lists = []
        P.run_batch(CONFIG, N_ROUNDS, workers=3, on_log=lists.append)
        assert len(forks) == 2
        assert [len(lines) for lines in lists] == [
            N_ROUNDS * (w + 1) // 3 - N_ROUNDS * w // 3 for w in range(3)
        ]
        no_child_left()

    @pytest.mark.parametrize("workers, n_rounds, processes", [
        (64, N_ROUNDS, 9), (8, lockstep.BREAK_EVEN_ROUNDS, 3),
        (8, lockstep.BREAK_EVEN_ROUNDS + 1, 4), (2, lockstep.BREAK_EVEN_ROUNDS, 2),
        (8, lockstep.BREAK_EVEN_ROUNDS - 1, 1),
    ])
    def test_process_count(self, workers, n_rounds, processes, many_cpus, forks):
        # min(workers, CPUs, SPAN-round shares), in process below break-even
        P.run_batch(CONFIG, n_rounds, workers=workers)
        assert len(forks) == processes - 1
        no_child_left()

    @pytest.mark.parametrize("workers", [2, 3, 9])
    def test_one_contiguous_range_per_process(self, workers, monkeypatch, many_cpus, forks,
                                              tmp_path):
        # every process, the caller's included, leaves one file per range it runs
        range_part = P._range_part

        def recorded(plan, seed, bounds, *args):
            (tmp_path / f"{os.getpid()}-{bounds[0]}-{bounds[1]}").touch()
            return range_part(plan, seed, bounds, *args)

        monkeypatch.setattr(P, "_range_part", recorded)
        batch(workers)
        runs = sorted((tuple(map(int, f.name.split("-"))) for f in tmp_path.iterdir()),
                      key=lambda run: run[1])
        pids = [pid for pid, _, _ in runs]
        assert len(set(pids)) == len(pids) == workers
        assert pids[0] == os.getpid() and set(pids[1:]) == set(forks)
        bounds = [lo for _, lo, _ in runs] + [N_ROUNDS]
        assert [(lo, hi) for _, lo, hi in runs] == list(zip(bounds, bounds[1:]))
        sizes = [hi - lo for _, lo, hi in runs]
        assert max(sizes) - min(sizes) <= 1
        no_child_left()

    def test_security_summary(self, many_cpus, forks):
        cfg = dataclasses.replace(CONFIG, p_check=0.0, seed=3)
        eve = S.EveModel("intercept_resend_photon")
        n_rounds = lockstep.BREAK_EVEN_ROUNDS // 4 + 1
        one = S.security_summary(cfg, n_rounds, eve)
        assert not forks
        for workers in (2, 9):
            assert S.security_summary(cfg, n_rounds, eve, workers=workers) == one
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

    @pytest.mark.parametrize("failing", ["first", "last"])  # the caller's range, a child's
    def test_cli_exits_3(self, failing, monkeypatch, many_cpus, tmp_path, capsys):
        range_part = P._range_part

        def broken(plan, seed, bounds, *args):
            if (bounds[0] == 0) if failing == "first" else (bounds[1] == N_ROUNDS):
                raise ValueError("broken range")
            return range_part(plan, seed, bounds, *args)

        monkeypatch.setattr(P, "_range_part", broken)
        code = cli.main(["batch", "--rounds", str(N_ROUNDS), "--threads", "4", "--round-log",
                         "--out", str(tmp_path)])
        assert code == 3
        assert "internal error: ValueError: broken range" in capsys.readouterr().err
        no_child_left()
