import os

import pytest
from hypothesis import settings

# Property tests draw a fixed example sequence, so every run of the suite
# checks the same cases and its timing does not fail a test.
settings.register_profile("qdcsim", derandomize=True, deadline=None)
settings.load_profile("qdcsim")


@pytest.fixture()
def many_cpus(monkeypatch):
    """16 usable CPUs, whatever the host has, so that up to 16 workers start."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)


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


@pytest.fixture()
def no_compile(monkeypatch):
    """Fails the test where a config compiles its plan, so that a config
    check placed after the compile fails instead of allocating."""
    from qdcsim import protocol

    def compile_(*args, **kwargs):
        raise AssertionError("a rejected config compiled")

    monkeypatch.setattr(protocol, "_compile_plan", compile_)
