"""The parameterized plan cache.

Entries are keyed on everything a finalized plan depends on:

* the normalized statement fingerprint (see
  :mod:`repro.service.parameterize`),
* the parameter-type signature,
* the catalog *identity* (a process-unique token minted per
  :class:`repro.catalog.Catalog` — version counters only order changes
  within one catalog, so without the identity two databases whose
  counters coincide would share plans and silently return each other's
  columns),
* the catalog DDL version and statistics version
  (:class:`repro.catalog.Catalog` ticks both),
* the :class:`~repro.optimizer.config.OptimizerConfig` fingerprint.

Versions-in-the-key makes staleness structural: after a DDL change or
stats refresh the old entries simply cannot be looked up again. The
explicit :meth:`PlanCache.invalidate_stale` hook additionally *removes*
them (and counts them as invalidations) so the LRU is not clogged by
unreachable plans; the service calls it whenever it observes a version
change. The sweep is scoped to one catalog identity, so a cache shared
across databases never drops another database's plans. Entries planned
under another config fingerprint are not swept; they age out of the LRU.

Planning is **single-flight**: concurrent misses on one key elect a
single builder; the others park on a per-key barrier and reuse the
built entry (counted in ``single_flight_waits`` and reported as hits —
they did not plan). Without this, N workers racing one cold statement
would plan it N times.

A cached entry stores the finalized physical plan only. Each execution
builds a fresh operator tree (operators carry per-run state), and the
operators compile their block kernels on their first block through the
kernel memos of :mod:`repro.expr.compile`, so from the second execution
on every kernel is a memo hit (the memos are LRUs; the cache holds no
reference into them). Re-binding costs nothing: parameters resolve
through the thread-local scope at evaluation time, so the kernels are
the same objects for every binding.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.instrument import count
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.plan import Plan


def config_fingerprint(config: OptimizerConfig) -> Tuple[Any, ...]:
    """A hashable identity for an optimizer configuration's behaviour."""
    fields = sorted(vars(config).items())
    return tuple((name, value) for name, value in fields)


@dataclass
class CachedPlan:
    """One plan-cache entry."""

    plan: Plan
    fingerprint: str
    type_signature: Tuple[str, ...]
    catalog_identity: int
    catalog_version: int
    stats_version: int
    config_key: Tuple[Any, ...]
    hits: int = 0

    @property
    def key(self) -> "CacheKey":
        return (
            self.fingerprint,
            self.type_signature,
            self.catalog_identity,
            self.catalog_version,
            self.stats_version,
            self.config_key,
        )


CacheKey = Tuple[str, Tuple[str, ...], int, int, int, Tuple[Any, ...]]


def _parameterized_entry(database, sql, parameters, config):
    """``(parameterize(sql), entry)`` for ``plan_for`` and ``pin``: the
    entry's plan is None, its key fields are the catalog's now."""
    # By module attribute, so a tracer that rebinds
    # ``repro.service.parameterize.parameterize`` sees the call.
    from repro.service.parameterize import _type_name, parameterize

    parameterized = parameterize(sql)
    signature = parameterized.type_signature + tuple(
        f"{name}={_type_name(value)}"
        for name, value in sorted((parameters or {}).items())
    )
    catalog = database.catalog
    entry = CachedPlan(
        plan=None,
        fingerprint=parameterized.fingerprint,
        type_signature=signature,
        catalog_identity=catalog.identity,
        catalog_version=catalog.version,
        stats_version=catalog.stats_version,
        config_key=config_fingerprint(config or OptimizerConfig()),
    )
    return parameterized, entry


class PlanCache:
    """Thread-safe LRU cache of finalized plans.

    Counters land in the ``service.cache`` instrument group:
    ``service.cache.hits`` / ``misses`` / ``evictions`` /
    ``invalidations`` / ``single_flight_waits``. The same numbers are
    kept exactly (merged across threads) on the instance for tests and
    ``stats()``. Every :meth:`plan_for` call lands exactly one hit or
    one miss — a single-flight waiter counts as a hit (it reused a plan
    it did not build), keeping the counters deterministic under races.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, CachedPlan]" = OrderedDict()
        # Single-flight barriers: key -> Event set when the build ends
        # (successfully or not).
        self._building: Dict[CacheKey, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.single_flight_waits = 0

    def get(self, key: CacheKey) -> Optional[CachedPlan]:
        with self._lock:
            entry = self._hit_locked(key)
            if entry is None:
                self.misses += 1
                count("service.cache.misses")
            return entry

    def _hit_locked(self, key: CacheKey) -> Optional[CachedPlan]:
        """LRU-touch and count a hit; None (uncounted) on absence."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        self.hits += 1
        count("service.cache.hits")
        return entry

    def put(self, key: CacheKey, entry: CachedPlan) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                count("service.cache.evictions")

    def invalidate_stale(
        self,
        catalog_identity: int,
        catalog_version: int,
        stats_version: int,
    ) -> int:
        """Drop *this catalog's* entries planned under older versions.

        Version-in-key already makes them unreachable; this hook frees
        them and counts the invalidation. Entries belonging to other
        catalog identities are untouched — one database's DDL must not
        sweep a co-tenant's plans. Returns the number dropped.
        """
        with self._lock:
            stale = [
                key
                for key, entry in self._entries.items()
                if entry.catalog_identity == catalog_identity
                and (
                    entry.catalog_version != catalog_version
                    or entry.stats_version != stats_version
                )
            ]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
            count("service.cache.invalidations", len(stale))
            return len(stale)

    def clear(self) -> int:
        """Drop everything (counted as invalidations)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            count("service.cache.invalidations", dropped)
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "single_flight_waits": self.single_flight_waits,
            }

    # ------------------------------------------------------------------
    # The one-call front door (used by QueryService and api.run_query)
    # ------------------------------------------------------------------

    def plan_for(
        self,
        database,
        sql: str,
        parameters: Optional[Dict[str, Any]] = None,
        config: Optional[OptimizerConfig] = None,
        cost_model=None,
    ) -> Tuple[Plan, Dict[str, Any], str]:
        """Plan ``sql`` through the cache.

        Returns ``(plan, bindings, status)`` where ``bindings`` merges
        the auto-extracted literals with the caller's host variables and
        ``status`` is ``"hit"`` or ``"miss"``. The plan still contains
        its parameter markers; execute it inside a binding scope (the
        ``parameters=`` argument of :func:`repro.api.execute` does it).

        Concurrent misses on one key are single-flighted: one caller
        plans, the rest wait on the build barrier and return the cached
        entry as a hit.
        """
        from repro.optimizer import Optimizer

        parameterized, entry = _parameterized_entry(
            database, sql, parameters, config
        )
        bindings = dict(parameterized.bindings)
        if parameters:
            bindings.update(parameters)
        key = entry.key
        while True:
            with self._lock:
                cached = self._hit_locked(key)
                if cached is not None:
                    return cached.plan, bindings, "hit"
                barrier = self._building.get(key)
                if barrier is None:
                    barrier = self._building[key] = threading.Event()
                    break  # we are the elected builder
                self.single_flight_waits += 1
            count("service.cache.single_flight_waits")
            barrier.wait()
            # Re-check: normally a hit now; if the builder failed (its
            # exception propagated to its caller) the loop elects a new
            # builder instead of failing every waiter.

        with self._lock:
            self.misses += 1
        count("service.cache.misses")
        try:
            entry.plan = Optimizer(database, config, cost_model).plan_sql(
                parameterized.tokens
            )
            self.put(key, entry)
        finally:
            with self._lock:
                self._building.pop(key, None)
            barrier.set()
        return entry.plan, bindings, "miss"

    def pin(
        self,
        database,
        sql: str,
        plan: Plan,
        parameters: Optional[Dict[str, Any]] = None,
        config: Optional[OptimizerConfig] = None,
    ) -> CacheKey:
        """Install ``plan`` as the entry for ``sql`` under the catalog's
        *current* versions.

        This is the regression gate's keep-the-incumbent lever: after a
        stats bump invalidates a statement's entry and the re-optimized
        plan turns out worse, pinning re-keys the incumbent under the
        new ``stats_version`` so subsequent lookups hit it instead of
        re-planning against the corrected statistics. The plan must
        come from planning the same statement class (its parameter
        markers line up with the parameterized text by construction).
        """
        _, entry = _parameterized_entry(database, sql, parameters, config)
        entry.plan = plan
        self.put(entry.key, entry)
        return entry.key
