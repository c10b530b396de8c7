"""Execution context: shared state for one query execution."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.errors import ExecutionError, QueryCancelled, QueryTimeout
from repro.storage import Database
from repro.storage.buffer import SORT_MEMORY_ROWS

# Executor engines. ``vector`` (the default) is the block engine:
# operators exchange :class:`repro.expr.vector.VectorBatch` blocks
# (per-column lists + selection vectors), evaluate expressions through
# the block kernels of :mod:`repro.expr.vector` (a block whose kernels
# raise is re-run through the interpreter, so errors match too), and
# materialize row tuples late, at pipeline breakers.
# ``interpreted`` routes every expression through the tree-walking
# interpreter (:mod:`repro.expr.evaluate`), one row at a time, and is
# kept as the semantic reference — both engines must produce
# byte-identical results.
MODE_INTERPRETED = "interpreted"
MODE_VECTOR = "vector"
_MODES = (MODE_INTERPRETED, MODE_VECTOR)

DEFAULT_BATCH_SIZE = 1024

# Sentinel: resolve per engine via resolve_batch_size (vector gets
# DEFAULT_BATCH_SIZE; interpreted gets 1 — the Volcano row-at-a-time
# configuration it exists to preserve).
BATCH_SIZE_AUTO = 0


def validate_mode(mode: str) -> str:
    """``mode`` if it names an engine; the one place engine names are
    checked (``REPRO_EXEC``, ``ExecutionContext``, ``QueryService``)."""
    if mode not in _MODES:
        raise ExecutionError(
            f"unknown executor engine {mode!r}; choose one of {_MODES}"
        )
    return mode


def resolve_batch_size(mode: str, batch_size: int) -> int:
    """Resolve ``batch_size`` for ``mode``, validating exactly once.

    Only the ``BATCH_SIZE_AUTO`` sentinel selects a per-mode default;
    any explicit positive value — including 1 with the block engine
    — is honoured as-is, and re-resolving an already-resolved value is
    the identity (nested contexts can copy a parent's ``batch_size``
    without re-triggering the sentinel logic). Booleans are rejected
    explicitly: ``False == BATCH_SIZE_AUTO`` would silently alias the
    sentinel.
    """
    if isinstance(batch_size, bool) or not isinstance(batch_size, int):
        raise ExecutionError(
            f"batch_size must be an int, got {batch_size!r}"
        )
    if batch_size == BATCH_SIZE_AUTO:
        return 1 if mode == MODE_INTERPRETED else DEFAULT_BATCH_SIZE
    if batch_size < 1:
        raise ExecutionError("batch_size must be positive")
    return batch_size


# Fault-injection slot (see repro.verify.faults). None — the default —
# compiles the hooks out: every CancelToken.check() pays one pointer
# test and nothing else. The verify layer installs a callable here to
# force timeouts/cancellations mid-plan deterministically.
_FAULT_HOOK: Optional[Callable[["CancelToken"], None]] = None


def set_fault_hook(
    hook: Optional[Callable[["CancelToken"], None]],
) -> Optional[Callable[["CancelToken"], None]]:
    """Install (or clear, with None) the checkpoint fault hook.

    Returns the previous hook so callers can restore it.
    """
    global _FAULT_HOOK
    previous = _FAULT_HOOK
    _FAULT_HOOK = hook
    return previous


class CancelToken:
    """Cooperative cancellation + deadline for one query execution.

    The token travels on the :class:`ExecutionContext`; operators poll
    :meth:`check` at block boundaries (the shared chokepoint is
    ``PhysicalOperator.blocks``), so a tripped token stops a runaway
    scan/sort/join from *inside* its pull loop. Tripping is one-way:
    there is no reset, a token serves exactly one query.

    ``timeout_seconds=None`` means no deadline; the token can still be
    cancelled explicitly. Monotonic time keeps deadlines immune to
    wall-clock adjustments.
    """

    __slots__ = ("deadline", "_cancelled", "_reason", "__weakref__")

    def __init__(self, timeout_seconds: Optional[float] = None):
        self.deadline = (
            time.monotonic() + timeout_seconds
            if timeout_seconds is not None
            else None
        )
        self._cancelled = False
        self._reason = ""

    def cancel(self, reason: str = "query cancelled") -> None:
        """Trip the token; the next checkpoint raises QueryCancelled."""
        self._reason = reason
        self._cancelled = True

    def expire(self) -> None:
        """Force the deadline into the past (fault injection / tests)."""
        self.deadline = time.monotonic() - 1.0

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (None when unbounded)."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def check(self) -> None:
        """Raise if the query should stop; otherwise return cheaply."""
        if _FAULT_HOOK is not None:
            _FAULT_HOOK(self)
        if self._cancelled:
            raise QueryCancelled(self._reason)
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise QueryTimeout("query exceeded its deadline")


def default_exec_mode() -> str:
    """Engine mode from the REPRO_EXEC env var (default: vector)."""
    return validate_mode(
        os.environ.get("REPRO_EXEC", MODE_VECTOR).strip().lower()
    )


@dataclass
class OperatorMetrics:
    """Runtime counters for one operator within one execution.

    ``seconds`` is cumulative wall-clock time spent producing this
    operator's batches *including* its children (the time is measured
    around the operator's own batch generator, which pulls from the
    children inside it).
    """

    label: str = ""
    rows: int = 0
    batches: int = 0
    seconds: float = 0.0
    # Rows pulled from the input before selection (filters, join
    # probes); rows/rows_in is the operator's observed selectivity.
    rows_in: int = 0
    # Vector engine: how many blocks this operator collapsed back into
    # row tuples (the late-materialization points).
    materializations: int = 0
    # Sort operators: rows this operator sorted, prefix-groups it
    # flushed (partial sort only), and simulated spill pages it charged.
    sorted_rows: int = 0
    groups: int = 0
    spill_pages: int = 0

    def render(self) -> str:
        text = (
            f"rows={self.rows} batches={self.batches} "
            f"time={self.seconds * 1000.0:.1f}ms"
        )
        if self.rows_in > 0:
            text += f" sel={self.rows / self.rows_in:.4f}"
        if self.materializations > 0:
            text += f" mat={self.materializations}"
        if self.sorted_rows > 0:
            text += f" sorted={self.sorted_rows}"
        if self.groups > 0:
            text += f" groups={self.groups}"
        if self.spill_pages > 0:
            text += f" spill={self.spill_pages}p"
        return text


@dataclass
class ExecutionContext:
    """Carried through an operator tree during execution.

    Attributes:
        database: storage handle (buffer pool, heaps, index trees).
        sort_memory_rows: in-memory sort threshold; larger inputs charge
            simulated spill I/O.
        spill_pages: simulated pages written+read by spilling operators
            (per-operator work, such as rows sorted, is in ``metrics``
            and the ``exec.*`` instrument counters).
        batch_size: rows per block in the ``blocks()`` protocol.
            Defaults per mode: DEFAULT_BATCH_SIZE when vector, 1
            (row-at-a-time) when interpreted; pass an explicit value to
            override either (see :func:`resolve_batch_size`).
        mode: ``vector`` (columnar selection-vector pipeline) or
            ``interpreted`` (tree-walking reference); defaults to the
            REPRO_EXEC env var, falling back to vector.
        cancel_token: cooperative deadline/cancellation token polled at
            operator block boundaries; None disables checkpointing.
        metrics: per-operator runtime counters keyed by operator object,
            rendered by ``PhysicalOperator.explain(analyze=context)``.
    """

    database: Database
    sort_memory_rows: int = SORT_MEMORY_ROWS
    spill_pages: int = 0
    batch_size: int = BATCH_SIZE_AUTO
    mode: str = field(default_factory=default_exec_mode)
    cancel_token: Optional[CancelToken] = None
    metrics: Dict[object, OperatorMetrics] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_mode(self.mode)
        self.batch_size = resolve_batch_size(self.mode, self.batch_size)

    @property
    def vectorized(self) -> bool:
        """True on the block engine: operators run their block bodies
        and expression work goes through compiled kernels."""
        return self.mode == MODE_VECTOR

    def metrics_for(self, operator: object) -> OperatorMetrics:
        entry = self.metrics.get(operator)
        if entry is None:
            entry = OperatorMetrics(label=operator.label())
            self.metrics[operator] = entry
        return entry

    def charge_spill(self, rows: int, rows_per_page: int = 64) -> int:
        """Record spill I/O for an operator overflowing memory.

        Returns the pages charged (write + read passes) so operators can
        also attribute the spill to their own metrics.
        """
        pages = max(1, rows // max(1, rows_per_page))
        # One write pass + one read pass.
        charged = 2 * pages
        self.spill_pages += charged
        return charged

    def simulated_io_ms(self) -> float:
        """Total modelled I/O time: buffer pool misses + spills."""
        from repro.storage.buffer import IoStats

        return (
            self.database.buffer_pool.stats.simulated_io_ms()
            + self.spill_pages * IoStats.SEQUENTIAL_MS
        )
