"""Forked workers: who runs in process under the cost rule, byte identity
at every worker count, and no process left behind, even when a worker
fails."""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qdcsim import cli, lockstep
from qdcsim import protocol as P
from qdcsim import security as S
from qdcsim.dynamics import PhysicalParams
from qdcsim.protocol import DetectorModel, RoundConfig

CONFIG = RoundConfig(
    params=PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=0.2), t_window=6.0, p_check=0.25,
    detector=DetectorModel(efficiency=0.9, dark_prob=0.05), seed=5,
)
N_ROUNDS = 16_684  # not a multiple of a block or of any process count
BREAK_EVEN = 2 * lockstep.FORK_ROWS + 1  # the fewest rows that run in two processes


@pytest.fixture()
def no_fork(monkeypatch, many_cpus):
    def fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", fork)


@pytest.fixture()
def free_forks(monkeypatch):
    """Forking costs nothing: every command runs min(workers, CPUs, rounds) processes."""
    monkeypatch.setattr(lockstep, "FORK_ROWS", 0)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerCount:
    def test_capped_by_cpus_without_starting_them(self, monkeypatch, no_fork):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4096)))
        assert lockstep.worker_count(10_000, 1 << 20, math.inf) == 4096

    def test_capped_by_units_and_requested(self, no_fork):
        assert lockstep.worker_count(10_000, 3, math.inf) == 3
        assert lockstep.worker_count(5, 100, math.inf) == 5
        assert lockstep.worker_count(1, 100, math.inf) == 1

    def test_break_even(self, no_fork):
        # the w-th process runs where the rows exceed FORK_ROWS * w * (w - 1)
        f = lockstep.FORK_ROWS
        for w in (2, 3, 8):
            assert lockstep.worker_count(8, 100, f * w * (w - 1)) == w - 1
            assert lockstep.worker_count(8, 100, f * w * (w - 1) + 1) == w
        assert lockstep.worker_count(8, 100, 0) == 1

    @given(workers=st.integers(1, 10**6), units=st.integers(1, 10**6), cpus=st.integers(1, 512),
           rows=st.just(math.inf) | st.integers(0, 10**15))
    def test_largest_count_that_pays(self, workers, units, cpus, rows):
        # never above workers, CPUs or units; each process it runs pays, and
        # one more would not, or is not allowed
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            w = lockstep.worker_count(workers, units, rows)
        cap, f = min(workers, cpus, units), lockstep.FORK_ROWS
        assert 1 <= w <= cap
        assert w == 1 or rows > f * w * (w - 1)
        assert w == cap or not rows > f * (w + 1) * w

    def test_without_fork_in_process(self, monkeypatch, many_cpus):
        monkeypatch.delattr(os, "fork")
        assert lockstep.worker_count(8, 100, math.inf) == 1

    def test_other_threads_in_process(self, no_fork):
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(30,))
        thread.start()
        try:
            assert lockstep.worker_count(8, 100, math.inf) == 1
        finally:
            done.set()
            thread.join(30)
        assert not thread.is_alive()
        assert lockstep.worker_count(8, 100, math.inf) == 8


class TestInProcess:
    def test_one_unit(self, no_fork, free_forks):
        # one round is one range, which runs in process at any worker count
        assert lockstep.map_ranges(lambda bounds: bounds, 1, 1, 8) == [(0, 1)]
        rows = P.run_sweep(CONFIG, [0.5, 2.0], 1, workers=8)
        assert len(rows) == 2

    def test_benchmark_sizes_in_process(self, no_fork):
        # 8,000 batch rounds, and 2,000 security rounds of 4 rows, cost less
        # than a second process
        assert lockstep.worker_count(2, 8000, 8000) == 1
        assert lockstep.worker_count(2, 2000, 2000 * 4) == 1

    def test_without_fork(self, monkeypatch, many_cpus, free_forks):
        monkeypatch.delattr(os, "fork")
        log = io.StringIO()
        P.run_batch(CONFIG, N_ROUNDS, workers=8, log=log)
        assert log.getvalue().count("\n") == N_ROUNDS

    def test_one_range_in_process(self, monkeypatch, no_fork):
        # at one worker a batch is one range, which map_ranges runs in
        # process without a pipe, writing its lines straight to the log
        def pipe():
            raise AssertionError("a pipe was opened")

        calls, map_ranges = [], lockstep.map_ranges

        def recorded(task, n_rounds, rows_per_round, workers):
            return map_ranges(lambda bounds: calls.append(bounds) or task(bounds),
                              n_rounds, rows_per_round, workers)

        monkeypatch.setattr(os, "pipe", pipe)
        monkeypatch.setattr(lockstep, "map_ranges", recorded)
        log = io.StringIO()
        P.run_batch(CONFIG, N_ROUNDS, log=log)
        assert calls == [(0, N_ROUNDS)]
        assert log.getvalue().count("\n") == N_ROUNDS


class TestMapRanges:
    def test_ranges_in_round_order(self, many_cpus, free_forks, forks):
        got = lockstep.map_ranges(lambda bounds: (bounds, os.getpid()), 7, 1, 3)
        assert [bounds for bounds, _ in got] == [(0, 2), (2, 4), (4, 7)]
        pids = [pid for _, pid in got]
        assert pids[0] == os.getpid()  # the caller runs the first range
        assert len(set(pids)) == 3 and set(pids[1:]) == set(forks)
        no_child_left()


def batch(workers):
    log = io.StringIO()
    stats = P.run_batch(CONFIG, N_ROUNDS, workers=workers, log=log)
    return stats, log.getvalue().splitlines()


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [2, 9])
    def test_batch(self, workers, many_cpus, free_forks, forks):
        stats, log = batch(workers)
        assert len(forks) == workers - 1
        assert (stats, log) == batch(1)
        assert len(log) == N_ROUNDS
        no_child_left()

    def test_log_written_in_chunks(self, many_cpus, free_forks, forks, tmp_path):
        # the caller writes its range LOG_ROWS lines at a time, and appends
        # the file each forked range wrote in the spool, which is gone afterwards
        writes = []

        class Recorded(io.StringIO):
            def write(self, text):
                writes.append(text.count("\n"))
                return super().write(text)

        log = Recorded()
        P.run_batch(CONFIG, N_ROUNDS, workers=3, log=log, spool=tmp_path)
        assert len(forks) == 2
        assert log.getvalue().splitlines() == batch(1)[1]
        assert max(writes) == P.LOG_ROWS and sum(writes) == N_ROUNDS
        assert not list(tmp_path.iterdir())
        no_child_left()

    @pytest.mark.parametrize("workers, extra, processes", [
        (2, -1, 1), (2, 0, 2), (8, -1, 1), (8, 0, 2),
    ])
    def test_process_count(self, workers, extra, processes, many_cpus, forks):
        # one logged round below the two-process break-even runs in process,
        # the break-even itself in two, however many workers are allowed
        P.run_batch(CONFIG, BREAK_EVEN + extra, workers=workers, log=io.StringIO())
        assert len(forks) == processes - 1
        no_child_left()

    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_files_at_forced_counts(self, processes, monkeypatch, many_cpus, forks, tmp_path):
        # FORK_ROWS = R / w^2 puts a command's R rows past the w-th process's
        # break-even, F w (w - 1), and short of the next one's, F (w + 1) w
        doc = {"params": {"g": 1.0, "Omega": 1.0, "Delta": 1.0, "k": 0.2},
               "round": {"t_window": 6.0, "p_check": 0.25, "seed": 5},
               "detector": {"efficiency": 0.9, "dark_prob": 0.05}}
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        commands = {
            "batch": (["batch", "--round-log", "--rounds", "3001"], 3001),
            "security": (["security", "--rounds", "1001"], 1001 * 4),
        }
        for name, (argv, rows) in commands.items():
            argv = [*argv, "--config", str(tmp_path / "doc.json")]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([*argv, "--out", str(tmp_path / f"{name}-1")]) == 0
                monkeypatch.setattr(lockstep, "FORK_ROWS", rows / processes**2)
                forks.clear()
                assert cli.main([*argv, "--threads", "64", "--out", str(tmp_path / name)]) == 0
            assert len(forks) == processes - 1
            one, forced = tmp_path / f"{name}-1", tmp_path / name
            assert {p.name for p in forced.iterdir()} == {p.name for p in one.iterdir()}
            for path in one.iterdir():
                if path.name != "manifest.json":  # it records the --out path
                    assert (forced / path.name).read_bytes() == path.read_bytes()
        no_child_left()

    @pytest.mark.parametrize("workers", [2, 3, 9])
    def test_one_contiguous_range_per_process(self, workers, monkeypatch, many_cpus, free_forks,
                                              forks, tmp_path):
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

    def test_security_summary(self, many_cpus, free_forks, forks):
        cfg = dataclasses.replace(CONFIG, p_check=0.0, seed=3)
        eve = S.EveModel("intercept_resend_photon")
        n_rounds = 1537
        one = S.security_summary(cfg, n_rounds, eve)
        assert not forks
        for workers in (2, 9):
            assert S.security_summary(cfg, n_rounds, eve, workers=workers) == one
        assert len(forks) == 1 + 8
        no_child_left()

    def test_sweep(self, many_cpus, free_forks, forks):
        windows = [0.5, 1.0, 2.0, 4.0, 6.0]
        n_rounds = 1229
        one = P.run_sweep(CONFIG, windows, n_rounds)
        for workers in (2, 9):
            assert P.run_sweep(CONFIG, windows, n_rounds, workers=workers) == one
        assert len(forks) == 1 + 8  # the units are rounds, not windows
        no_child_left()

    def test_one_window_sweep_forks(self, many_cpus, forks):
        # a sweep round is one row per window: 12,000 rounds of one window
        # pass the two-process break-even of 2 x FORK_ROWS rows
        one = P.run_sweep(CONFIG, [2.0], 12_000)
        assert not forks
        assert P.run_sweep(CONFIG, [2.0], 12_000, workers=2) == one
        assert len(forks) == 1
        no_child_left()

    def test_sweep_plans_compile_in_the_caller(self, many_cpus, free_forks, forks):
        windows = [0.5, 1.0, 2.0, 4.0, 6.0]
        P._plan.cache_clear()
        P.run_sweep(CONFIG, windows, 1229, workers=3)
        assert len(forks) == 2
        assert P._plan.cache_info().currsize == len(windows)
        hits = P._plan.cache_info().hits
        for t_window in windows:
            P._plan(dataclasses.replace(CONFIG, t_window=t_window))
        assert P._plan.cache_info().hits == hits + len(windows)
        no_child_left()


class TestFailure:
    def test_child_exception_raised_here(self, many_cpus, free_forks):
        def task(bounds):
            if bounds == (2, 4):
                raise KeyError("range (2, 4)")
            return bounds

        with pytest.raises(KeyError, match=r"range \(2, 4\)"):
            lockstep.map_ranges(task, 4, 1, 2)
        no_child_left()

    def test_child_without_result(self, many_cpus, free_forks):
        def task(bounds):
            if bounds == (2, 4):
                os._exit(7)
            return bounds

        with pytest.raises(RuntimeError, match="without a result"):
            lockstep.map_ranges(task, 4, 1, 2)
        no_child_left()

    def test_children_killed_when_the_caller_fails(self, many_cpus, free_forks):
        def task(bounds):
            if bounds[0] == 0:
                raise KeyError("the first range")
            time.sleep(60)

        start = time.perf_counter()
        with pytest.raises(KeyError, match="the first range"):
            lockstep.map_ranges(task, 3, 1, 3)
        assert time.perf_counter() - start < 30
        no_child_left()

    def test_fork_failure(self, monkeypatch, many_cpus, free_forks):
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
            lockstep.map_ranges(lambda bounds: bounds, 3, 1, 3)
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


# Runs cli.main in a fresh interpreter, "forked" with the free_forks and
# many_cpus fixtures' settings, and prints its exit code and the peak RSS
# in KiB of this process and of every worker it reaped.
PEAK_RSS = """\
import os, resource, sys
from qdcsim import cli, lockstep
if sys.argv[1] == "forked":
    lockstep.FORK_ROWS = 0
    os.sched_getaffinity = lambda pid: set(range(16))
code = cli.main(sys.argv[2:])
print(code, max(resource.getrusage(who).ru_maxrss
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))
"""
PEAK_MARGIN_MIB = 20  # a logged batch's peak at 10^6 rounds over its peak at 10^5


@pytest.mark.parametrize("mode, threads", [("in-process", 1), ("forked", 2)])
def test_logged_batch_memory_stays_bounded(mode, threads, tmp_path):
    # the log streams to its file a chunk at a time, so ten times the rounds
    # (about 108 MB of log) raise the peak RSS by less than a fixed margin
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    peaks = {}
    for n_rounds in (10**5, 10**6):
        out = tmp_path / str(n_rounds)
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, mode, "batch", "--round-log", "--rounds",
             str(n_rounds), "--threads", str(threads), "--out", str(out)],
            env=env, check=True, capture_output=True, text=True)
        code, peaks[n_rounds] = map(int, proc.stdout.split()[-2:])
        assert code == 0, proc.stderr
        with open(out / "rounds.jsonl", "rb") as log:
            assert sum(1 for _ in log) == n_rounds
        shutil.rmtree(out)
    assert peaks[10**6] - peaks[10**5] < PEAK_MARGIN_MIB * 1024, peaks
