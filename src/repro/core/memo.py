"""Memoization support for the order algebra.

The four fundamental operations (Reduce/Test/Cover/Homogenize) are pure
functions of ``(specification(s), context content)``, and contexts are
immutable by convention — so results never need invalidation and can be
memoized for a context's whole lifetime. Join enumeration asks the same
questions of the same contexts thousands of times per query (every DP
pruning comparison calls Test Order), which is exactly the amortization
the paper's Section 4 cheapness argument assumes.

Two layers make the memo effective:

* **Content fingerprints.** Many distinct :class:`OrderContext`
  instances carry identical content — every plan over the same DP subset
  derives an equal context. Memo tables are therefore keyed by the
  context's content fingerprint in a process-wide registry, so equal
  contexts *share* one table and a reduction computed under one plan's
  context is a hit under its siblings'.
* **Spec interning.** Reduced specifications are interned so the same
  canonical order is one object everywhere; repeated dict probes then
  short-circuit on identity and reuse the spec's cached hash.

The registry is bounded (cleared wholesale at a cap) so a long-running
process serving many distinct queries cannot leak; within one planning
run the cap is never approached.

``ENABLED`` is the kill switch used by benchmarks to measure the
un-memoized cost and by tests to pin memoized results against the naive
reference implementations (:mod:`repro.core.reference`). The
``OptimizerConfig.disabled()`` baseline never reaches this module at
all: its naive order tests (``test_order_naive`` and friends) bypass
the algebra front doors entirely.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

from repro.core.instrument import count

# Flipped by ``memoization_disabled()`` only; reads are plain module
# attribute lookups on the hot path.
ENABLED = True

# fingerprint -> ContextMemo. Bounded: cleared wholesale at the cap.
_REGISTRY: Dict[object, "ContextMemo"] = {}
_REGISTRY_CAP = 1024

# Interned specification objects (spec -> canonical instance). Bounded
# the same way; entries are tiny.
_INTERNED: Dict[object, object] = {}
_INTERN_CAP = 8192


class ContextMemo:
    """Per-context-content memo tables for the four operations."""

    __slots__ = ("reduce", "test", "cover", "homogenize", "prefix")

    def __init__(self):
        self.reduce: Dict[object, object] = {}
        self.test: Dict[object, bool] = {}
        self.cover: Dict[object, object] = {}
        self.homogenize: Dict[object, object] = {}
        self.prefix: Dict[object, object] = {}


def memo_for(fingerprint: object) -> ContextMemo:
    """The shared memo table for a context content fingerprint."""
    memo = _REGISTRY.get(fingerprint)
    if memo is None:
        if len(_REGISTRY) >= _REGISTRY_CAP:
            _REGISTRY.clear()
        memo = ContextMemo()
        _REGISTRY[fingerprint] = memo
        count("memo.tables_created")
    else:
        count("memo.tables_shared")
    return memo


def intern_spec(specification):
    """The canonical instance of ``specification``.

    Equal specs returned from different reductions collapse onto one
    object, making later memo probes identity-fast.
    """
    canonical = _INTERNED.get(specification)
    if canonical is not None:
        return canonical
    if len(_INTERNED) >= _INTERN_CAP:
        _INTERNED.clear()
    _INTERNED[specification] = specification
    return specification


def clear_memos() -> None:
    """Drop every memo table and interned spec (test/bench hygiene)."""
    _REGISTRY.clear()
    _INTERNED.clear()


@contextmanager
def memoization_disabled() -> Iterator[None]:
    """Run the algebra with every memo bypassed (still the fast closure).

    Used by the metamorphic tests to compare memoized answers with
    recomputed ones; not used by any planning path.
    """
    global ENABLED
    previous = ENABLED
    ENABLED = False
    try:
        yield
    finally:
        ENABLED = previous
