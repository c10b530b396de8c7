"""Build pin: what ``build_tpcd_database(0.002)`` stores, to the byte.

Per table, a sha256 of each stored part: the heap (page ids and every
row's ``repr``, so exact value types and Decimal exponents count),
every index tree node by node (page id, keys, and for leaves the RIDs),
and the ``TableStats`` (per-column NDV, extremes, null count and
histogram edges, plus the row sample). A
change to generated data, to how rows are validated and stored, to how
indexes are keyed or packed, or to the statistics fails here, in
tier-1, not only in ``perf/expected/``.

The digest is computed in child interpreters under two
``PYTHONHASHSEED`` values, so nothing stored may follow set or dict
iteration order. A change meant to move the build regenerates the JSON
and says so::

    PYTHONPATH=src:. python tests/tpcd/test_build_digest.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PINNED = Path(__file__).with_name("build_digest.json")
REPO_ROOT = Path(__file__).resolve().parents[2]
SCALE_FACTOR = 0.002


def _sha(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _heap_lines(heap):
    pages, page_ids = heap.page_tables()
    for page_id, page in zip(page_ids, pages):
        yield repr(page_id)
        yield from map(repr, page)


def _tree_lines(tree):
    yield repr((tree.height, tree.entry_count))
    level = [tree._root]
    while level:
        below = []
        for node in level:
            yield repr((node.page_id, node.is_leaf, node.keys))
            if node.is_leaf:
                yield repr([(rid.page_no, rid.slot) for rid in node.values])
            else:
                below.extend(node.children)
        level = below


def _stats_lines(stats):
    yield repr((stats.row_count, stats.pages, tuple(stats.sample_columns)))
    for name, column in stats.columns.items():
        edges = None if column.histogram is None else column.histogram.boundaries
        yield repr(
            (name, column.ndv, column.low, column.high, column.null_count, edges)
        )
    yield from map(repr, stats.sample_rows)


def build_digest(scale_factor=SCALE_FACTOR):
    from repro.tpcd import TPCD_TABLES, build_tpcd_database

    database = build_tpcd_database(scale_factor=scale_factor)
    found = {}
    for table in TPCD_TABLES:
        store = database.store(table)
        parts = {
            "heap": _sha(_heap_lines(store.heap)),
            "stats": _sha(_stats_lines(store.schema.stats)),
        }
        for name, (_index, tree) in sorted(store.indexes.items()):
            parts[f"index {name}"] = _sha(_tree_lines(tree))
        found[table] = parts
    return found


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_tpcd_build_is_byte_identical(hash_seed):
    environment = dict(os.environ, PYTHONHASHSEED=hash_seed)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    done = subprocess.run(
        [sys.executable, __file__, "--print"],
        env=environment, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    moved = sorted(
        f"{table}/{part}"
        for table in found.keys() | pinned.keys()
        for part in found.get(table, {}).keys() | pinned.get(table, {}).keys()
        if found.get(table, {}).get(part) != pinned.get(table, {}).get(part)
    )
    assert not moved, f"the stored TPC-D build moved: {moved}"


if __name__ == "__main__":
    digests = json.dumps(build_digest(), indent=1, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--print"]:
        sys.stdout.write(digests)
    else:
        PINNED.write_text(digests, encoding="utf-8")
        print(f"pinned {len(json.loads(digests))} tables in {PINNED}")
