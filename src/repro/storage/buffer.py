"""Buffer pool with LRU replacement and I/O accounting.

Pages live in Python memory regardless; the pool exists to *model* I/O.
Every page access is classified as a hit (page resident) or a miss, and
misses as sequential (the page follows the previously missed page of the
same file, the prefetch-friendly pattern the paper's ordered
nested-loop join exploits) or random.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Tuple

PageId = Tuple[Hashable, int]  # (file identifier, page number)


@dataclass
class IoStats:
    """Counters accumulated by a buffer pool."""

    hits: int = 0
    sequential_misses: int = 0
    random_misses: int = 0

    # Calibrated "milliseconds" per event; sequential misses are cheap
    # because prefetching and big-block I/O amortize the seek (the paper's
    # configuration drove the CPU to 100% utilization this way).
    SEQUENTIAL_MS = 0.1
    RANDOM_MS = 2.0

    @property
    def total_misses(self) -> int:
        return self.sequential_misses + self.random_misses

    @property
    def total_accesses(self) -> int:
        return self.hits + self.total_misses

    def simulated_io_ms(self) -> float:
        """Modelled I/O time for the recorded access pattern."""
        return (
            self.sequential_misses * self.SEQUENTIAL_MS
            + self.random_misses * self.RANDOM_MS
        )

    def snapshot(self) -> "IoStats":
        return IoStats(self.hits, self.sequential_misses, self.random_misses)

    def delta_since(self, earlier: "IoStats") -> "IoStats":
        return IoStats(
            self.hits - earlier.hits,
            self.sequential_misses - earlier.sequential_misses,
            self.random_misses - earlier.random_misses,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IoStats(hits={self.hits}, seq={self.sequential_misses}, "
            f"rand={self.random_misses})"
        )


class BufferPool:
    """An LRU page cache that records its own hit/miss behaviour.

    A miss counts as *sequential* when it lands within ``PREFETCH_WINDOW``
    pages ahead of the previous miss in the same file — modelling the
    big-block prefetching the paper's configuration used ("using a
    combination of big-block I/O, prefetching, and I/O parallelism").
    Monotone-but-sparse access patterns (ordered index probes that skip
    keys) therefore register as prefetch-friendly, exactly the ordered
    nested-loop-join effect of Section 8.1.
    """

    PREFETCH_WINDOW = 32

    def __init__(self, capacity_pages: int = 1024):
        if capacity_pages < 1:
            capacity_pages = 1
        self.capacity_pages = capacity_pages
        self.stats = IoStats()
        self._resident: "OrderedDict[PageId, None]" = OrderedDict()
        self._last_missed_page: Dict[Hashable, int] = {}
        # The query service executes plans on a worker pool; LRU
        # reordering and eviction are multi-step OrderedDict mutations
        # that must not interleave.
        self._lock = threading.Lock()

    def access(self, page_id: PageId) -> bool:
        """Record an access to ``page_id``; returns True on a hit."""
        with self._lock:
            if page_id in self._resident:
                self._resident.move_to_end(page_id)
                self.stats.hits += 1
                return True
            self._admit(page_id)
            return False

    def access_run(self, page_ids: Iterable[PageId]) -> None:
        """Charge an ordered run of page accesses under one lock hold.

        Page for page this is a loop of :meth:`access` — same hit /
        sequential / random classification, LRU order, eviction and
        last-missed bookkeeping — minus a lock round trip per page. A
        consecutive repeat is a hit on the page that is already most
        recently used, so it only counts. Block operators collect the
        pages of a whole block (descents, leaf steps, heap fetches) and
        charge them here once.
        """
        with self._lock:
            resident = self._resident
            move_to_end = resident.move_to_end
            hits = 0
            previous = None
            for page_id in page_ids:
                if page_id == previous:
                    hits += 1
                    continue
                previous = page_id
                if page_id in resident:
                    move_to_end(page_id)
                    hits += 1
                else:
                    self._admit(page_id)
            self.stats.hits += hits

    def _admit(self, page_id: PageId) -> None:
        """Classify a miss and make the page resident (lock held)."""
        file_id, page_no = page_id
        previous = self._last_missed_page.get(file_id)
        if (
            previous is not None
            and 0 < page_no - previous <= self.PREFETCH_WINDOW
        ):
            self.stats.sequential_misses += 1
        else:
            self.stats.random_misses += 1
        self._last_missed_page[file_id] = page_no
        self._resident[page_id] = None
        if len(self._resident) > self.capacity_pages:
            self._resident.popitem(last=False)

    def invalidate(self, file_id: Hashable) -> None:
        """Evict every page of one file (e.g. after a table reload)."""
        with self._lock:
            for page_id in [
                resident
                for resident in self._resident
                if resident[0] == file_id
            ]:
                del self._resident[page_id]
            self._last_missed_page.pop(file_id, None)

    def reset_stats(self) -> None:
        self.stats = IoStats()

    def clear(self) -> None:
        """Drop all resident pages (cold cache) and reset counters."""
        with self._lock:
            self._resident.clear()
            self._last_missed_page.clear()
            self.reset_stats()

    def resident_count(self) -> int:
        return len(self._resident)
