"""Span tracer that wraps the simulator's functions from outside the package.

A target is ``(span name, module, attribute path)``.  A module-level
function is replaced in every ``qdcsim`` module whose globals bind it, so
each call is traced where its caller looks it up: ``protocol`` imports
``evolve_conditional`` by name, so the wrapper goes into ``protocol`` as well
as ``dynamics``.  A method (``Class.method``) is replaced on its class.  A
target that does not exist -- renamed or removed -- is recorded as absent
instead of raising, and reports zero calls.

Spans nest per thread.  A span's self time is its duration minus the
durations of the spans it directly encloses, so over every thread the self
times of all spans sum to the durations of that thread's root spans.
Statistics stay in memory as ``{name: [calls, total_s, self_s]}``.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Callable


class _ThreadState:
    __slots__ = ("stack", "table", "root_s")

    def __init__(self):
        self.stack: list[list[float]] = []
        self.table: dict[str, list] = {}
        self.root_s = 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """Return ``fn`` timed as span ``name``; ``on_call(args, kwargs)``
        runs before the span starts, so its cost falls to the caller."""
        perf = self._clock
        state_of = self._state

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            state = state_of()
            stack = state.stack
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                else:
                    state.root_s += dur
                rec = state.table.get(name)
                if rec is None:
                    rec = state.table[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]

        traced.__wrapped__ = fn
        return traced

    def install(self, targets, hooks: dict[str, Callable] | None = None) -> None:
        hooks = hooks or {}
        for span, module, path in targets:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(span)
                continue
            wrapper = self.wrap(span, original, hooks.get(span))
            if parents:
                self._patch(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "qdcsim" and not name.startswith("qdcsim."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """Per span, summed over threads: (calls, total_s, self_s)."""
        merged: dict[str, list] = {}
        for state in self._states:
            for name, (calls, total, self_s) in state.table.items():
                rec = merged.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
        return {name: tuple(rec) for name, rec in merged.items()}

    def self_sum_and_roots(self) -> tuple[float, float]:
        """(sum of every span's self time, sum of root-span durations)."""
        self_sum = sum(rec[2] for state in self._states for rec in state.table.values())
        return self_sum, sum(state.root_s for state in self._states)
