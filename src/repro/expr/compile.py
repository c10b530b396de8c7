"""Kernel memos and counters of the expression layer.

The block kernels of :mod:`repro.expr.vector` are compiled once per
(expression, schema) pair and kept in :class:`KernelMemo` instances;
this module holds that memo and the layer's one counter dict
(``compile.*`` for memo lookups, ``vector.*`` for the block kernels).

This module sits in the ``expr`` layer and must not import upward
(``repro.core`` and above), so it keeps its own small stats dict
instead of using ``repro.core.instrument``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.expr.nodes import Expression
from repro.expr.schema import RowSchema

Row = Tuple[Any, ...]

# The expr layer's counters (read by benches/tests; reset with
# reset_stats). Kept local because instrument lives above this layer.
STATS: Dict[str, int] = {}


def _count(name: str) -> None:
    STATS[name] = STATS.get(name, 0) + 1


def reset_stats() -> None:
    STATS.clear()


def stats() -> Dict[str, int]:
    return dict(STATS)


# Entries each kernel memo keeps. A cached statement needs a handful of
# kernels, so this is hundreds of hot statements; ad-hoc traffic with
# fresh literals on every arrival recompiles instead of growing forever.
KERNEL_MEMO_CAP = 1024


class KernelMemo:
    """Least-recently-used memo of kernels keyed by (expression, schema).

    One lock serialises lookup-and-touch against insert-and-evict: the
    query service's workers share the memos of this layer. Every lookup
    counts as ``compile.calls`` (and ``compile.memo_hits``), whichever
    kernel family the memo holds.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Tuple[Expression, RowSchema], Any]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def get(self, key: Tuple[Expression, RowSchema]) -> Optional[Any]:
        _count("compile.calls")
        with self._lock:
            kernel = self._entries.get(key)
            if kernel is not None:
                self._entries.move_to_end(key)
        if kernel is not None:
            _count("compile.memo_hits")
        return kernel

    def put(self, key: Tuple[Expression, RowSchema], kernel: Any) -> None:
        with self._lock:
            self._entries[key] = kernel
            self._entries.move_to_end(key)
            if len(self._entries) > KERNEL_MEMO_CAP:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def predicate_kernel(
    expression: Expression, schema: RowSchema
) -> Callable[[Sequence[Row]], List[Row]]:
    """``kernel(rows) -> rows`` keeping records where the predicate is
    True (three-valued: NULL drops the row): the engine's block filter
    over ``RowBlock(rows)``.

    No operator calls this; ``perf/layers.py`` times it for the
    ``expr.filter_mrows_per_s`` layer metric (ROADMAP item G).
    """
    # Imported here: vector imports this module for its memo.
    from repro.expr.vector import RowBlock, compile_vector_filter

    vector_filter = compile_vector_filter(expression, schema)

    def kernel(rows: Sequence[Row]) -> List[Row]:
        return [rows[i] for i in vector_filter(RowBlock(rows))]

    return kernel
