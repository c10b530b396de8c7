"""Seed-7 corpus replay through the QueryService under deadline fault
injection.

Three passes per engine over the pinned fuzz corpus:

1. baseline — the corpus through a fault-free service; rows recorded.
2. measure  — a counting hook tallies how many cancellation checkpoints
   each statement reaches, which splits the corpus into survivors
   (short queries) and victims (long ones) for a chosen threshold.
3. faulted  — with :func:`repro.verify.faults.inject_token_faults`
   tripping every token at its threshold-th checkpoint, victims must
   fail with a clean ``QueryTimeout`` while survivors return rows
   byte-identical to the baseline — the fault never corrupts, only
   interrupts.

The split is deterministic per engine because faults are counted per
token (one token per query), not globally.
"""

import pytest

from repro import run_query
from repro.errors import QueryCancelled, QueryTimeout
from repro.executor.context import set_fault_hook
from repro.service import QueryService
from repro.verify import inject_token_faults
from repro.verify.gen import QueryGenerator, generate_schema

CORPUS_SEED = 7
CORPUS_SIZE = 50


@pytest.fixture(scope="module")
def harness():
    schema = generate_schema(CORPUS_SEED)
    generator = QueryGenerator(schema, CORPUS_SEED)
    queries = [generator.generate().sql() for _ in range(CORPUS_SIZE)]
    return schema.build(), queries


def checkpoint_counts(service, queries):
    """Checkpoints reached per statement, measured sequentially through
    a single-worker service so the shared tally is unambiguous."""
    tally = {"checks": 0}

    def hook(token):
        tally["checks"] += 1

    previous = set_fault_hook(hook)
    counts = []
    try:
        for sql in queries:
            tally["checks"] = 0
            service.query(sql)
            counts.append(tally["checks"])
    finally:
        set_fault_hook(previous)
    return counts


@pytest.mark.parametrize("mode", ["vector", "interpreted"])
def test_corpus_survives_deadline_faults(harness, mode):
    db, queries = harness
    with QueryService(db, workers=1, mode=mode) as service:
        baseline = [service.query(sql).rows for sql in queries]
        counts = checkpoint_counts(service, queries)
        # Median threshold: some statements reach it (victims), the
        # rest stay under it (survivors). Both paths must be exercised.
        threshold = sorted(counts)[len(counts) // 2]
        victims = [i for i, n in enumerate(counts) if n >= threshold]
        survivors = [i for i, n in enumerate(counts) if n < threshold]
        assert victims, "no statement reaches the fault threshold"
        assert survivors, "every statement reaches the fault threshold"

        with inject_token_faults(after_checks=threshold, kind="timeout"):
            outcomes = []
            for sql in queries:
                try:
                    outcomes.append(("rows", service.query(sql).rows))
                except QueryTimeout:
                    outcomes.append(("timeout", None))

        for index in survivors:
            verdict, rows = outcomes[index]
            assert verdict == "rows", queries[index]
            assert rows == baseline[index], queries[index]
        for index in victims:
            assert outcomes[index][0] == "timeout", queries[index]
        assert service.stats().timeouts == len(victims)
        # Every worker survived every injected fault.
        assert all(worker.is_alive() for worker in service._workers)
        # And with the hook gone, the service is back to full health.
        assert service.query(queries[0]).rows == baseline[0]


PARTITIONED_SEED = 8  # this seed hash-partitions both fact and child


def per_token_maxima(service, queries):
    """Per statement: the checkpoint count of its busiest token.

    A partitioned plan runs several tokens at once (the statement's own
    plus one per exchange worker); faults trip each token at its *own*
    Nth checkpoint, so the statement fails iff its busiest token
    reaches the threshold — which is what this measures.
    """
    from collections import Counter

    tally = Counter()

    def hook(token):
        tally[id(token)] += 1

    previous = set_fault_hook(hook)
    maxima = []
    try:
        for sql in queries:
            tally.clear()
            service.query(sql)
            maxima.append(max(tally.values(), default=0))
    finally:
        set_fault_hook(previous)
    return maxima


def test_partitioned_corpus_worker_faults_are_typed_and_clean():
    """Corpus replay over partitioned tables: timing out individual
    partition workers surfaces the typed error at the gather point,
    strands no threads (suite-wide autouse guard), and leaves
    fault-free statements byte-identical."""
    schema = generate_schema(PARTITIONED_SEED)
    assert any(t.partitioning is not None for t in schema.tables)
    generator = QueryGenerator(schema, PARTITIONED_SEED)
    queries = [generator.generate().sql() for _ in range(20)]
    db = schema.build()
    with QueryService(db, workers=1) as service:
        baseline = [service.query(sql).rows for sql in queries]
        maxima = per_token_maxima(service, queries)
        threshold = sorted(maxima)[len(maxima) // 2]
        victims = [i for i, n in enumerate(maxima) if n >= threshold]
        survivors = [i for i, n in enumerate(maxima) if n < threshold]
        assert victims and survivors

        with inject_token_faults(after_checks=threshold, kind="timeout"):
            outcomes = []
            for sql in queries:
                try:
                    outcomes.append(("rows", service.query(sql).rows))
                except QueryTimeout:
                    outcomes.append(("timeout", None))

        for index in survivors:
            verdict, rows = outcomes[index]
            assert verdict == "rows", queries[index]
            assert rows == baseline[index], queries[index]
        for index in victims:
            assert outcomes[index][0] == "timeout", queries[index]
        assert all(worker.is_alive() for worker in service._workers)
        # Hook gone: partitioned plans run clean again.
        assert service.query(queries[0]).rows == baseline[0]


def test_injected_cancel_is_typed_and_non_fatal(harness):
    db, queries = harness
    with QueryService(db, workers=1) as service:
        expected = run_query(db, queries[0]).rows
        with inject_token_faults(after_checks=1, kind="cancel"):
            with pytest.raises(QueryCancelled):
                service.query(queries[0])
        assert service.stats().cancelled == 1
        assert service.query(queries[0]).rows == expected
