"""Acceptance: an injected memo-poisoning bug is caught and shrunk.

PR 1's memo layer is exactly the surface where a cache bug would
silently corrupt plans, so this test *injects* one — a reduce-memo whose
``get`` claims every order specification reduces to empty, which makes
Test Order vacuously true and licenses the optimizer to elide sorts the
data needs — and demands that:

1. the config-matrix oracle catches it (the disabled baseline and the
   reference stay honest, so poisoned configs diverge), and
2. the delta-debugging shrinker reduces the failure to a minimal repro
   of at most 3 clauses whose emitted pytest case is valid Python.

A Test Order memo that answers "satisfied" to everything must be caught
and shrunk the same way. The poison is confined to a patched
``memo_for``: it hands out fresh lying tables without touching the real
registry, and the registry is cleared afterwards regardless.
"""

import pytest

from repro.core import context as context_module
from repro.core import memo as memo_module
from repro.core.memo import clear_memos
from repro.core.ordering import OrderSpec
from repro.verify.gen import QueryGenerator, generate_schema
from repro.verify.oracle import check_query, full_matrix
from repro.verify.shrink import shrink


class _PoisonedReduce(dict):
    """A reduce-memo claiming every spec reduces to the empty order."""

    _EMPTY = OrderSpec()

    def get(self, key, default=None):
        return self._EMPTY


def _poisoned_memo_for(fingerprint):
    memo = memo_module.ContextMemo()
    memo.reduce = _PoisonedReduce()
    return memo


@pytest.fixture
def poisoned_memo(monkeypatch):
    # context.py binds memo_for by name at import; patch that binding.
    monkeypatch.setattr(context_module, "memo_for", _poisoned_memo_for)
    yield
    clear_memos()


def test_memo_poisoning_is_caught_and_shrunk(poisoned_memo):
    schema = generate_schema(7)
    db = schema.build()
    generator = QueryGenerator(schema, 7)
    configs = full_matrix()

    failing = None
    for _ in range(40):
        spec = generator.generate()
        if spec.raw is not None:
            continue
        if check_query(db, spec.sql(), configs):
            failing = spec
            break
    assert failing is not None, (
        "poisoned reduce memo produced no oracle mismatch in 40 queries — "
        "the differential oracle is not sensitive to memo corruption"
    )

    result = shrink(schema, failing, configs)
    assert result.mismatches, "shrinker lost the failure"
    assert result.spec.clause_count() <= 3, (
        f"repro not minimal: {result.spec.clause_count()} clauses "
        f"({result.sql})"
    )
    # The shrunken database is tiny too, not just the query.
    assert sum(len(t.rows) for t in result.schema.tables) <= 6

    case = result.pytest_case("test_emitted_repro")
    compile(case, "<emitted>", "exec")  # ready-to-paste means parseable


def test_emitted_case_passes_once_bug_is_fixed(poisoned_memo, monkeypatch):
    """The emitted pytest case must go green when the poison is removed
    — i.e. it reproduces the *bug*, not some artifact of the harness."""
    schema = generate_schema(7)
    db = schema.build()
    generator = QueryGenerator(schema, 7)
    configs = full_matrix()
    failing = None
    for _ in range(40):
        spec = generator.generate()
        if spec.raw is None and check_query(db, spec.sql(), configs):
            failing = spec
            break
    assert failing is not None
    result = shrink(schema, failing, configs)
    case = result.pytest_case("emitted_repro")

    namespace = {}
    exec(compile(case, "<emitted>", "exec"), namespace)

    # Still poisoned: the emitted case must fail.
    with pytest.raises(AssertionError):
        namespace["emitted_repro"]()

    # Un-poison ("fix the bug"): the emitted case must pass.
    monkeypatch.setattr(context_module, "memo_for", memo_module.memo_for)
    clear_memos()
    namespace["emitted_repro"]()


class _LyingTest(dict):
    """A Test Order memo claiming every property satisfies every
    interesting order: sorts elided that the data needs."""

    def get(self, key, default=None):
        return True


def test_lying_test_order_cache_is_caught_and_shrunk(monkeypatch):
    def lying_memo_for(fingerprint):
        memo = memo_module.ContextMemo()
        memo.test = _LyingTest()
        return memo

    monkeypatch.setattr(context_module, "memo_for", lying_memo_for)
    try:
        schema = generate_schema(7)
        db = schema.build()
        generator = QueryGenerator(schema, 7)
        configs = full_matrix()
        failing = None
        for _ in range(40):
            spec = generator.generate()
            if spec.raw is None and check_query(db, spec.sql(), configs):
                failing = spec
                break
        assert failing is not None, (
            "lying Test Order cache produced no oracle mismatch in 40 "
            "queries — the differential oracle is not sensitive to a "
            "false satisfaction verdict"
        )
        result = shrink(schema, failing, configs)
        assert result.mismatches, "shrinker lost the failure"
        assert result.spec.clause_count() <= 3, (
            f"repro not minimal: {result.spec.clause_count()} clauses "
            f"({result.sql})"
        )
        compile(result.pytest_case("test_emitted_repro"), "<emitted>", "exec")
    finally:
        clear_memos()


def test_shrink_rejects_non_failing_input():
    schema = generate_schema(3)
    generator = QueryGenerator(schema, 3)
    spec = generator.generate()
    with pytest.raises(ValueError):
        shrink(schema, spec, full_matrix())
