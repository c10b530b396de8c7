"""A B+-tree index with linked leaves and I/O accounting.

Keys are tuples of sort-key-encoded column values (so mixed directions
and NULLs-high semantics come for free); values are heap RIDs. Duplicate
keys are allowed — each leaf entry is an independent (key, rid) pair.

Every node visit is charged to the buffer pool: descents are random
accesses, walking the leaf chain is sequential in leaf numbering (which
matches physical order after bulk load, so range scans model as
prefetch-friendly I/O).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.buffer import BufferPool, PageId
from repro.storage.heap import HeapFile, Rid

Key = Tuple[Any, ...]


class _Node:
    __slots__ = ("page_id", "keys", "is_leaf")

    def __init__(self, page_id: PageId, is_leaf: bool):
        self.page_id = page_id
        self.keys: List[Key] = []
        self.is_leaf = is_leaf


class _Leaf(_Node):
    __slots__ = ("values", "next_leaf", "prev_leaf")

    def __init__(self, page_id: PageId):
        super().__init__(page_id, True)
        self.values: List[Rid] = []
        self.next_leaf: Optional["_Leaf"] = None
        self.prev_leaf: Optional["_Leaf"] = None


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self, page_id: PageId):
        super().__init__(page_id, False)
        self.children: List[_Node] = []


class BPlusTree:
    """B+-tree mapping composite keys to RIDs."""

    def __init__(self, file_id: str, buffer_pool: BufferPool, fanout: int = 64):
        if fanout < 4:
            raise StorageError("fanout must be at least 4")
        self.file_id = file_id
        self.buffer_pool = buffer_pool
        self.fanout = fanout
        self._next_node_id = 0
        self._root: _Node = self._new_leaf()
        self._height = 1
        self._entry_count = 0
        # Bumped by every mutation; probe cursors drop their remembered
        # descent when it moves.
        self._version = 0

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------

    def _new_leaf(self) -> _Leaf:
        leaf = _Leaf((self.file_id, self._next_node_id))
        self._next_node_id += 1
        return leaf

    def _new_internal(self) -> _Internal:
        node = _Internal((self.file_id, self._next_node_id))
        self._next_node_id += 1
        return node

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return self._entry_count

    @property
    def height(self) -> int:
        return self._height

    def insert(self, key: Key, rid: Rid) -> None:
        """Insert one entry (duplicates allowed)."""
        split = self._insert_into(self._root, key, rid)
        if split is not None:
            separator, new_node = split
            new_root = self._new_internal()
            new_root.keys = [separator]
            new_root.children = [self._root, new_node]
            self._root = new_root
            self._height += 1
        self._entry_count += 1
        self._version += 1

    def _insert_into(
        self, node: _Node, key: Key, rid: Rid
    ) -> Optional[Tuple[Key, _Node]]:
        if node.is_leaf:
            leaf = node  # type: ignore[assignment]
            position = bisect_right(leaf.keys, key)
            leaf.keys.insert(position, key)
            leaf.values.insert(position, rid)
            if len(leaf.keys) > self.fanout:
                return self._split_leaf(leaf)
            return None
        internal = node  # type: ignore[assignment]
        child_index = bisect_right(internal.keys, key)
        split = self._insert_into(internal.children[child_index], key, rid)
        if split is None:
            return None
        separator, new_child = split
        internal.keys.insert(child_index, separator)
        internal.children.insert(child_index + 1, new_child)
        if len(internal.children) > self.fanout:
            return self._split_internal(internal)
        return None

    def _split_leaf(self, leaf: _Leaf) -> Tuple[Key, _Node]:
        middle = len(leaf.keys) // 2
        sibling = self._new_leaf()
        sibling.keys = leaf.keys[middle:]
        sibling.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        sibling.next_leaf = leaf.next_leaf
        if sibling.next_leaf is not None:
            sibling.next_leaf.prev_leaf = sibling
        sibling.prev_leaf = leaf
        leaf.next_leaf = sibling
        return sibling.keys[0], sibling

    def _split_internal(self, node: _Internal) -> Tuple[Key, _Node]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        sibling = self._new_internal()
        sibling.keys = node.keys[middle + 1 :]
        sibling.children = node.children[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        return separator, sibling

    def bulk_load(self, entries: Sequence[Tuple[Key, Rid]]) -> None:
        """Replace the tree's contents from pre-sorted (or not) entries.

        Builds packed leaves bottom-up; resulting leaf numbering is
        monotone in key order so chain walks register as sequential I/O.
        """
        ordered = sorted(entries, key=lambda entry: entry[0])
        self._next_node_id = 0
        self._entry_count = len(ordered)
        self._version += 1
        per_leaf = max(2, (self.fanout * 3) // 4)
        leaves: List[_Leaf] = []
        for start in range(0, len(ordered), per_leaf):
            leaf = self._new_leaf()
            chunk = ordered[start : start + per_leaf]
            leaf.keys = [key for key, _rid in chunk]
            leaf.values = [rid for _key, rid in chunk]
            if leaves:
                leaves[-1].next_leaf = leaf
                leaf.prev_leaf = leaves[-1]
            leaves.append(leaf)
        if not leaves:
            self._root = self._new_leaf()
            self._height = 1
            return
        level: List[_Node] = list(leaves)
        self._height = 1
        while len(level) > 1:
            parents: List[_Node] = []
            per_parent = max(2, (self.fanout * 3) // 4)
            for start in range(0, len(level), per_parent):
                parent = self._new_internal()
                group = level[start : start + per_parent]
                parent.children = group
                parent.keys = [
                    self._smallest_key(child) for child in group[1:]
                ]
                parents.append(parent)
            level = parents
            self._height += 1
        self._root = level[0]

    def _smallest_key(self, node: _Node) -> Key:
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[attr-defined]
        return node.keys[0]

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _find_leaf(
        self, key: Optional[Key], rightmost: bool = False
    ) -> Tuple[List[PageId], _Leaf, Optional[Key], Optional[Key]]:
        """Walk root to leaf without charging anything.

        Returns the page ids on the path, the leaf, and the separator
        interval ``lower < key <= upper`` (``None`` = unbounded) inside
        which any other key takes this same path. ``key=None`` walks to
        the leftmost (or rightmost) leaf.
        """
        node = self._root
        path = [node.page_id]
        lower: Optional[Key] = None
        upper: Optional[Key] = None
        while not node.is_leaf:
            separators = node.keys
            if key is None:
                child_index = len(separators) if rightmost else 0
            else:
                # bisect_left sends equal keys to the left child, where
                # the first duplicate lives.
                child_index = bisect_left(separators, key)
                if child_index and (
                    lower is None or separators[child_index - 1] > lower
                ):
                    lower = separators[child_index - 1]
                if child_index < len(separators) and (
                    upper is None or separators[child_index] < upper
                ):
                    upper = separators[child_index]
            node = node.children[child_index]  # type: ignore[attr-defined]
            path.append(node.page_id)
        return path, node, lower, upper  # type: ignore[return-value]

    def probe_cursor(self) -> "ProbeCursor":
        """A probe cursor for one operator's probe stream."""
        return ProbeCursor(self)

    def probe(self, key: Key) -> List[Rid]:
        """Equality point-probe: RIDs of every entry whose key prefix
        equals ``key``, in leaf order.

        Touches exactly the pages ``scan_range(low=key, high=key)``
        would: a one-key :meth:`ProbeCursor.probe_block` with no heap,
        its page run charged on the spot.
        """
        run: List[PageId] = []
        _owners, rids = self.probe_cursor().probe_block((key,), None, run)
        self.buffer_pool.access_run(run)
        return rids

    def scan_range(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        descending: bool = False,
    ) -> Iterator[Tuple[Key, Rid]]:
        """Iterate entries with ``low <= key <= high`` (bounds optional).

        Entry-at-a-time :meth:`scan_runs`: each leaf's pages are charged
        just before its first entry is yielded.
        """
        run: List[PageId] = []
        charge = self.buffer_pool.access_run
        for keys, rids in self.scan_runs(
            low, high, low_inclusive, high_inclusive, descending, run
        ):
            charge(run)
            run.clear()
            yield from zip(keys, rids)

    def scan_runs(
        self,
        low: Optional[Key],
        high: Optional[Key],
        low_inclusive: bool,
        high_inclusive: bool,
        descending: bool,
        run: List[PageId],
    ) -> Iterator[Tuple[List[Key], List[Rid]]]:
        """The range scan one leaf at a time: ``(keys, rids)`` slices of
        each visited leaf's qualifying entries, in scan order.

        Bounds are prefix bounds: a bound tuple shorter than stored keys
        compares against the key's prefix of the same length. Each leaf
        is cut at the bisect positions of the bounds; a leaf is visited
        exactly when an entry-by-entry walk would have reached it.

        Charges nothing: the descent path and each leaf step are
        appended to ``run`` for the caller to charge with
        ``BufferPool.access_run``. The next leaf is appended only when
        the consumer asks for its slice, so a consumer that stops early
        never pays for a leaf it did not read.
        """
        if self._entry_count == 0:
            return
        if descending:
            path, leaf, _lower, _upper = self._find_leaf(
                high, rightmost=high is None
            )
            run += path
            # The first qualifying entry may be in a later leaf when
            # ``high`` lands at a leaf boundary with duplicates; walk
            # right first.
            while leaf.next_leaf is not None and (
                high is None or leaf.next_leaf.keys[0][: len(high)] <= high
            ):
                leaf = leaf.next_leaf
                run.append(leaf.page_id)
        else:
            path, leaf, _lower, _upper = self._find_leaf(low)
            run += path
        while True:
            keys = leaf.keys
            start = (
                0
                if low is None
                else bisect_left(keys, low)
                if low_inclusive
                else _first_above(keys, low)
            )
            stop = (
                len(keys)
                if high is None
                else _first_above(keys, high)
                if high_inclusive
                else bisect_left(keys, high)
            )
            if descending:
                yield keys[start:stop][::-1], leaf.values[start:stop][::-1]
                # Walking down, an entry under ``stop`` that falls below
                # ``low`` ends the scan.
                if start and stop:
                    return
                leaf = leaf.prev_leaf
            else:
                yield keys[start:stop], leaf.values[start:stop]
                # Walking up, an entry from ``start`` on that exceeds
                # ``high`` ends the scan; entries below ``low`` are
                # skipped without looking at ``high``.
                if max(start, stop) < len(keys):
                    return
                leaf = leaf.next_leaf
            if leaf is None:
                return
            run.append(leaf.page_id)


def _first_above(keys: List[Key], bound: Key) -> int:
    """Position of the first stored key whose prefix exceeds ``bound``."""
    width = len(bound)
    return bisect_right(keys, bound, key=lambda stored: stored[:width])


class ProbeCursor:
    """One operator's memory of its last descent into a tree.

    The ordered nested-loop join of the paper's Section 8.1 probes with
    a sorted key stream, so consecutive keys mostly land in the same
    leaf. The cursor keeps the last root-to-leaf path and the separator
    interval that path is valid for; a key inside the interval replays
    the path's page ids without bisecting the internal nodes again, and
    any other key (or a tree that changed since) descends afresh, so an
    unordered stream takes the same loop. The state belongs to one
    probe stream — create a cursor per operator execution, never share
    one through the tree.
    """

    __slots__ = ("_tree", "_descent")

    def __init__(self, tree: BPlusTree):
        self._tree = tree
        # (tree version, path page ids, leaf, lower, upper) of the last
        # descent; no tree is ever at version None.
        self._descent: Tuple[Any, ...] = (None, (), None, None, None)

    def probe_block(
        self,
        keys: Sequence[Optional[Key]],
        heap: Optional[HeapFile],
        run: List[PageId],
    ) -> Tuple[List[int], List[Any]]:
        """Probe every key of a block, fetching the matches from
        ``heap``: ``(owners, rows)``, the matching rows in key order and
        leaf order, each row's key position in ``owners``. A ``None``
        key is skipped. With no heap the RIDs themselves stand in for
        the rows and no heap page is touched.

        Charges nothing. Per key it appends to ``run`` what
        ``scan_range(low=key, high=key)`` and a :meth:`HeapFile.fetch`
        per RID would touch, in that order: the root-to-leaf path, each
        leaf step, then the heap page of every fetched RID. The caller
        charges the run with ``BufferPool.access_run``.
        """
        tree = self._tree
        version, path, leaf, lower, upper = self._descent
        owners: List[int] = []
        found: List[Any] = []
        append_found = found.append
        append_page = run.append
        if heap is not None:
            pages, page_ids = heap.page_tables()
        for position, key in enumerate(keys):
            if key is None:
                continue
            if (
                version != tree._version
                or (lower is not None and not lower < key)
                or (upper is not None and not key <= upper)
            ):
                if tree._entry_count == 0:
                    continue
                version = tree._version
                path, leaf, lower, upper = tree._find_leaf(key)
            run += path
            keys_here = leaf.keys
            # Stored keys share one width; a shorter key is a prefix.
            full_width = len(keys_here[0]) == len(key)
            start = bisect_left(keys_here, key)
            stop = (
                bisect_right(keys_here, key, start)
                if full_width
                else _first_above(keys_here, key)
            )
            rids = leaf.values[start:stop]
            step = leaf
            while stop == len(keys_here):
                step = step.next_leaf
                if step is None:
                    break
                append_page(step.page_id)
                keys_here = step.keys
                stop = (
                    bisect_right(keys_here, key)
                    if full_width
                    else _first_above(keys_here, key)
                )
                rids += step.values[:stop]
            if not rids:
                continue
            owners += [position] * len(rids)
            if heap is None:
                found += rids
                continue
            try:
                for rid in rids:
                    page_no = rid.page_no
                    append_found(pages[page_no][rid.slot])
                    append_page(page_ids[page_no])
            except IndexError:
                raise StorageError(
                    f"bad {rid} in heap {heap.file_id}"
                ) from None
        self._descent = (version, path, leaf, lower, upper)
        return owners, found
