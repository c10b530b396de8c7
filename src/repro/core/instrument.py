"""Plan-time profiling: a process-wide counter/timer registry.

The order algebra runs inside the optimizer's innermost loops, so its
cost is measured, not asserted: every closure fixpoint step, algebra
call, and memo hit increments a counter here. ``perf/`` snapshots the
registry around a traced run and reports call counts and cache hit
rates; the counter-budget regression test pins the planning work of
TPC-D Q3 and of a five-table chain to fixed budgets so quadratic
behaviour cannot silently return.

Counting goes through :func:`count` — one thread-local attribute read
and one dict update. A counted event must stay cheaper than the event
it counts: the algebra's memo hits are about a microsecond, and a
bookkeeping pattern that cost four Python calls per increment was once
~12% of planning.

Concurrency: the query service runs optimizer and executor code on a
worker pool, so the registry must not lose increments under threads —
and must not take a lock per increment. The resolution is striping:
each thread increments a private dict (``threading.local``), registered
once in a locked global list, and :func:`snapshot` merges every
thread's slice; read-modify-write never leaves the thread, so it is
race-free. ``COUNTERS``/``TIMERS`` are dict-like proxies over *the
calling thread's* slice, for readers and tests. Reading a total goes
through :func:`snapshot` — a bare ``COUNTERS.get`` only sees work done
by the current thread. Slices of finished threads stay registered until
:func:`reset`. The service's fixed-size pools are the only source of
threads that run planner or executor code — a statement plans and
executes on one thread and nothing below ``repro.service`` starts
another (``tools/check_imports.py`` enforces it) — so the registry is
bounded by the pool sizes.

Counters stay enabled permanently, so they cannot drift out of sync
with the code they observe.

Naming convention: ``<subsystem>.<event>``, e.g. ``reduce.calls``,
``reduce.memo_hits``, ``closure.iterations``, ``service.cache.hits``.
Hit rates are derived by the reader (hits / calls), never stored.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

_REGISTRY_LOCK = threading.Lock()
# Every thread's (counters, timers) pair, in first-use order.
_SLICES: List[Tuple[Dict[str, int], Dict[str, float]]] = []


class _ThreadSlices(threading.local):
    """Per-thread counter/timer dicts, registered globally on first use."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        with _REGISTRY_LOCK:
            _SLICES.append((self.counters, self.timers))


_LOCAL = _ThreadSlices()


class _Registry:
    """Dict-like proxy over the calling thread's slice, for readers
    and tests: item get/set, ``in``, ``get`` and ``items``. Increments
    use :func:`count`; cross-thread totals come from :func:`snapshot`.
    """

    __slots__ = ("_index",)

    def __init__(self, index: int) -> None:
        self._index = index

    def _slice(self) -> Dict:
        return (_LOCAL.counters, _LOCAL.timers)[self._index]

    def __getitem__(self, name: str):
        return self._slice()[name]

    def __setitem__(self, name: str, value) -> None:
        self._slice()[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._slice()

    def get(self, name: str, default=None):
        return self._slice().get(name, default)

    def items(self):
        return self._slice().items()


COUNTERS = _Registry(0)
TIMERS = _Registry(1)


def count(name: str, amount: int = 1) -> None:
    """Increment counter ``name`` by ``amount``."""
    counters = _LOCAL.counters
    counters[name] = counters.get(name, 0) + amount


@contextmanager
def timed(name: str) -> Iterator[None]:
    """Accumulate the wall-clock time of the ``with`` body into ``name``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timers = _LOCAL.timers
        timers[name] = timers.get(name, 0.0) + (time.perf_counter() - start)


def snapshot() -> Dict[str, float]:
    """Counters and timers as one flat dict (timers suffixed ``_s``),
    merged across every thread that has ever counted."""
    merged: Dict[str, float] = {}
    with _REGISTRY_LOCK:
        slices = list(_SLICES)
    for counters, timers in slices:
        for name, value in list(counters.items()):
            merged[name] = merged.get(name, 0) + value
        for name, seconds in list(timers.items()):
            key = f"{name}_s"
            merged[key] = merged.get(key, 0.0) + seconds
    return merged


def delta(before: Dict[str, float]) -> Dict[str, float]:
    """What changed since a previous :func:`snapshot` (zeros dropped)."""
    current = snapshot()
    changed = {}
    for name, value in current.items():
        grown = value - before.get(name, 0)
        if grown:
            changed[name] = grown
    return changed


def reset() -> None:
    """Zero every counter and timer on every thread.

    Racy against threads actively counting (their in-flight increment
    may survive); call it only around quiescent measurement windows.
    """
    with _REGISTRY_LOCK:
        for counters, timers in _SLICES:
            counters.clear()
            timers.clear()
