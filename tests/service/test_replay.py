"""Satellite replay differential: cached parameterized plans vs fresh
literal plans over the pinned seed-7 fuzz corpus.

Every corpus statement runs three ways — planned fresh from its literal
text, through the plan cache (first arrival, a miss that plans the
parameterized text), and through the cache again (a hit that reuses the
cached plan with freshly extracted bindings). All three must produce
the same multiset of rows and honor the query's visible ORDER BY, under
both executor engines.

This is the end-to-end check of the §4.1 claim the cache is built on:
the plan the optimizer picks for ``seg = :p`` is interchangeable with
the plan for ``seg = 3`` *for the rows it produces*, not just for its
order properties.
"""

import pytest

from repro import run_query
from repro.service import PlanCache
from repro.verify.gen import QueryGenerator, generate_schema
from repro.verify.oracle import (
    _order_violation,
    normalized,
    output_order_positions,
)

CORPUS_SEED = 7
CORPUS_SIZE = 50


@pytest.fixture(scope="module")
def harness():
    schema = generate_schema(CORPUS_SEED)
    generator = QueryGenerator(schema, CORPUS_SEED)
    queries = [generator.generate().sql() for _ in range(CORPUS_SIZE)]
    return schema.build(), queries


@pytest.mark.parametrize("mode", ["vector", "interpreted"])
def test_cached_replay_matches_fresh_literal_plans(harness, mode):
    db, queries = harness
    cache = PlanCache(capacity=CORPUS_SIZE)
    mismatches = []
    for sql in queries:
        fresh = run_query(db, sql, mode=mode)
        first = run_query(db, sql, cache=cache, mode=mode)
        second = run_query(db, sql, cache=cache, mode=mode)
        # The second arrival of the same statement must reuse the plan.
        # (The first may already hit: distinct corpus statements can
        # normalize to the same fingerprint.)
        assert second.cache_status == "hit"
        expected = normalized(fresh.rows)
        for replay in (first, second):
            if normalized(replay.rows) != expected:
                mismatches.append((sql, replay.cache_status, "rows"))
                continue
            positions = output_order_positions(db, sql)
            if _order_violation(replay.rows, positions):
                mismatches.append((sql, replay.cache_status, "order"))
    assert not mismatches, mismatches
    stats = cache.stats()
    assert stats["hits"] >= CORPUS_SIZE  # every statement re-hit at least once
    assert stats["entries"] == stats["misses"] <= CORPUS_SIZE
