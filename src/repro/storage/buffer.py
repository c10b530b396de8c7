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

# Rows a sort (or hash table) holds in memory before it spills: the
# default of both the cost model and the executor, so estimate and
# execution spill at the same size.
SORT_MEMORY_ROWS = 100_000


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
        return self.access_run((page_id,)) == 1

    def access_run(self, page_ids: Iterable[PageId]) -> int:
        """Charge an ordered run of page accesses under one lock hold;
        returns the number of hits.

        Each page is a hit when resident (and becomes most recently
        used), else a miss: sequential when it lands within
        ``PREFETCH_WINDOW`` pages ahead of the file's previously missed
        page, random otherwise, and the least recently used page is
        evicted when the pool overflows. :meth:`access` is the one-page
        run; block operators collect the pages of a whole block
        (descents, leaf steps, heap fetches) and charge them here once.
        """
        with self._lock:
            resident = self._resident
            move_to_end = resident.move_to_end
            last_missed = self._last_missed_page
            window = self.PREFETCH_WINDOW
            capacity = self.capacity_pages
            stats = self.stats
            hits = 0
            previous = None
            for page_id in page_ids:
                # A repeat of the page just charged is a hit on the most
                # recently used page. Callers hand out one page-id object
                # per page; an equal copy takes the resident path below,
                # with the same outcome.
                if page_id is previous:
                    hits += 1
                    continue
                previous = page_id
                if page_id in resident:
                    move_to_end(page_id)
                    hits += 1
                    continue
                file_id, page_no = page_id
                last = last_missed.get(file_id)
                if last is not None and 0 < page_no - last <= window:
                    stats.sequential_misses += 1
                else:
                    stats.random_misses += 1
                last_missed[file_id] = page_no
                resident[page_id] = None
                if len(resident) > capacity:
                    resident.popitem(last=False)
            stats.hits += hits
        return hits

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
