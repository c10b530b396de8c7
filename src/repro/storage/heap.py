"""Heap files: unordered pages of records addressed by RID."""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Any, Iterator, List, NamedTuple, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.buffer import BufferPool, PageId


class Rid(NamedTuple):
    """Record identifier: page number + slot within the page.

    A plain ``(page_no, slot)`` tuple underneath, so it equals, hashes
    and orders like one; nothing stores RIDs beside other tuples.
    """

    page_no: int
    slot: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"rid({self.page_no},{self.slot})"


# ``Rid`` from a ``(page_no, slot)`` pair without the Python-level
# ``__new__`` a NamedTuple call runs per record.
_rid_of_pair = partial(tuple.__new__, Rid)


def _page_rids(page_no: int, start: int, stop: int) -> List[Rid]:
    """The RIDs of slots ``start`` to ``stop - 1`` of page ``page_no``."""
    return list(map(_rid_of_pair, zip(repeat(page_no), range(start, stop))))


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

    def extend(self, rows: Sequence[Tuple[Any, ...]]) -> List[Rid]:
        """Store records in order, returning their RIDs: the last page is
        filled first, then new pages, a page-sized slice at a time. No
        I/O is charged: loading is setup, not measured query work."""
        pages = self._pages
        rids: List[Rid] = []
        start = 0
        while start < len(rows):
            if not pages or len(pages[-1]) >= self.rows_per_page:
                self._page_ids.append((self.file_id, len(pages)))
                pages.append([])
            page_no = len(pages) - 1
            page = pages[page_no]
            first = len(page)
            stop = start + self.rows_per_page - first
            page += rows[start:stop]
            rids += _page_rids(page_no, first, len(page))
            start = stop
        return rids

    def append(self, row: Tuple[Any, ...]) -> Rid:
        """Store one record (:meth:`extend` of one), returning its RID."""
        return self.extend((row,))[0]

    def rids(self) -> List[Rid]:
        """Every record's RID in physical (:meth:`scan_pages`) order.
        Charges nothing."""
        rids: List[Rid] = []
        for page_no, page in enumerate(self._pages):
            rids += _page_rids(page_no, 0, len(page))
        return rids

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
            yield from zip(_page_rids(page_no, 0, len(page)), page)

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
