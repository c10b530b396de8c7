"""Heap files: unordered pages of records addressed by RID."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.buffer import BufferPool, PageId


@dataclass(frozen=True)
class Rid:
    """Record identifier: page number + slot within the page."""

    page_no: int
    slot: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"rid({self.page_no},{self.slot})"


class HeapFile:
    """A paged bag of tuples.

    ``rows_per_page`` is derived from the schema's estimated row width by
    the owning :class:`~repro.storage.database.StoredTable`; the heap
    itself only needs the number.
    """

    def __init__(self, file_id: str, buffer_pool: BufferPool, rows_per_page: int):
        if rows_per_page < 1:
            raise StorageError("rows_per_page must be positive")
        self.file_id = file_id
        self.buffer_pool = buffer_pool
        self.rows_per_page = rows_per_page
        self._pages: List[List[Tuple[Any, ...]]] = []
        # Page ids as the buffer pool names them, one per page, built
        # once so the fetch paths allocate no tuple per access.
        self._page_ids: List[PageId] = []

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def row_count(self) -> int:
        return sum(len(page) for page in self._pages)

    def append(self, row: Tuple[Any, ...]) -> Rid:
        """Store one record, returning its RID. No I/O is charged: loading
        is setup, not measured query work."""
        if not self._pages or len(self._pages[-1]) >= self.rows_per_page:
            self._page_ids.append((self.file_id, len(self._pages)))
            self._pages.append([])
        page_no = len(self._pages) - 1
        self._pages[page_no].append(row)
        return Rid(page_no, len(self._pages[page_no]) - 1)

    def fetch(self, rid: Rid) -> Tuple[Any, ...]:
        """Random-access one record by RID (charges one page access)."""
        try:
            page = self._pages[rid.page_no]
            row = page[rid.slot]
        except IndexError:
            raise StorageError(f"bad {rid} in heap {self.file_id}") from None
        self.buffer_pool.access(self._page_ids[rid.page_no])
        return row

    def fetch_run(
        self, rids: Sequence[Rid], run: List[PageId]
    ) -> List[Tuple[Any, ...]]:
        """The records at ``rids``, read straight from their pages.

        Charges nothing: the page :meth:`fetch` would touch for each
        RID is appended to ``run``, in RID order, for the caller to
        charge with ``BufferPool.access_run``.
        """
        pages = self._pages
        try:
            rows = [pages[rid.page_no][rid.slot] for rid in rids]
        except IndexError:
            raise StorageError(f"bad rid in heap {self.file_id}") from None
        page_ids = self._page_ids
        run.extend([page_ids[rid.page_no] for rid in rids])
        return rows

    def page_tables(self) -> Tuple[List[List[Tuple[Any, ...]]], List[PageId]]:
        """The live pages and their page ids, by page number, for a
        caller that reads records inline and charges what
        :meth:`fetch` would (``ProbeCursor.probe_block``). Read only."""
        return self._pages, self._page_ids

    def scan(self) -> Iterator[Tuple[Rid, Tuple[Any, ...]]]:
        """Full sequential scan in physical order."""
        for page_no, page in enumerate(self._pages):
            self.buffer_pool.access(self._page_ids[page_no])
            for slot, row in enumerate(page):
                yield Rid(page_no, slot), row

    def scan_pages(self) -> Iterator[List[Tuple[Any, ...]]]:
        """Sequential scan, one page of records at a time.

        Charges the same page accesses as :meth:`scan` but skips the
        per-record Rid construction for callers that only want rows.
        The yielded lists are the live pages — do not mutate them.
        """
        charge = self.buffer_pool.access_run
        for page_id, page in zip(self._page_ids, self._pages):
            charge((page_id,))
            yield page

    def truncate(self) -> None:
        self._pages.clear()
        self._page_ids.clear()
        self.buffer_pool.invalidate(self.file_id)
