"""Where a TPC-D build spends its time: ``python -m repro.bench load``.

Runs ``build_tpcd_database`` once, unchanged, with a timer around the
entry point of each load stage, and reports wall seconds per stage, the
cyclic garbage collector's collections during the build and their
seconds (a ``gc.callbacks`` timer; that time is already part of the
stage times, not added to them), and the process's peak RSS:

* generate — the ``TpcdGenerator`` row methods (their rows are drawn
  to a list inside the timer, so lazy generators count here);
* validate + keys — ``StoredTable._checked`` (column validation and
  key enforcement);
* heap — ``StoredTable._store`` (page appends and RIDs);
* index — ``StoredTable._index_keys`` and ``BPlusTree.bulk_load``
  (tree keys from the loaded rows, packed trees; the build declares
  each table's indexes before loading it, so ``load`` builds them);
* analyze — ``StoredTable.analyze`` (``TableStats.collect``).

Whatever falls outside the stages (catalog work, the final pool reset)
is reported as ``other``. The stages never nest, so the column sums to
the build's wall time.
"""

from __future__ import annotations

import gc
import resource
import time
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Dict, Tuple

from repro.bench.harness import ExperimentReport
from repro.storage.btree import BPlusTree
from repro.storage.database import StoredTable
from repro.tpcd import TpcdGenerator, build_tpcd_database

STAGES: Tuple[Tuple[str, type, Tuple[str, ...]], ...] = (
    (
        "generate",
        TpcdGenerator,
        (
            "region_rows",
            "nation_rows",
            "supplier_rows",
            "customer_rows",
            "part_rows",
            "partsupp_rows",
            "order_and_lineitem_rows",
        ),
    ),
    ("validate + keys", StoredTable, ("_checked",)),
    ("heap", StoredTable, ("_store",)),
    ("index", StoredTable, ("_index_keys",)),
    ("index", BPlusTree, ("bulk_load",)),
    ("analyze", StoredTable, ("analyze",)),
)


@contextmanager
def _timed(spent: Dict[str, float]) -> Iterator[None]:
    """Wrap every stage method so its wall time adds to ``spent``."""
    saved = []

    def timer(stage, method):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = method(*args, **kwargs)
            if isinstance(result, Iterator):
                result = list(result)
            spent[stage] += time.perf_counter() - start
            return result

        return timed

    try:
        for stage, owner, names in STAGES:
            spent[stage] = 0.0
            for name in names:
                method = getattr(owner, name)
                saved.append((owner, name, method))
                setattr(owner, name, timer(stage, method))
        yield
    finally:
        for owner, name, method in saved:
            setattr(owner, name, method)


@contextmanager
def _collections(tally: Dict[str, float]) -> Iterator[None]:
    """Count the cyclic collections run inside the block and add up
    their seconds in ``tally``."""
    started = 0.0

    def timer(phase, _info):
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
        else:
            tally["collections"] += 1
            tally["seconds"] += time.perf_counter() - started

    tally.update(collections=0, seconds=0.0)
    gc.callbacks.append(timer)
    try:
        yield
    finally:
        gc.callbacks.remove(timer)


def load_report(scale_factor: float) -> ExperimentReport:
    """One timed TPC-D build at ``scale_factor``, split by stage."""
    spent: Dict[str, float] = {}
    collected: Dict[str, float] = {}
    with _timed(spent), _collections(collected):
        start = time.perf_counter()
        build_tpcd_database(scale_factor)
        total = time.perf_counter() - start
    spent["other"] = total - sum(spent.values())
    report = ExperimentReport(
        "load",
        f"TPC-D build at SF {scale_factor}: wall time per stage",
        headers=("stage", "seconds", "share"),
    )
    for stage, seconds in spent.items():
        report.add_row(stage, f"{seconds:.3f}", f"{seconds / total:.0%}")
    report.add_row("total", f"{total:.3f}", "100%")
    report.add_note(
        f"cyclic GC: {collected['collections']:.0f} collections, "
        f"{collected['seconds']:.3f} s (part of the times above)"
    )
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.add_note(f"peak RSS {peak:.1f} MiB (whole process)")
    return report
