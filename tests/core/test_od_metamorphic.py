"""Metamorphic pinning of the OD-aware algebra against naive oracles.

The order-dependency extension threads an :class:`ODSet` through the
memoized front doors: Test Order grows a positional OD rule, Homogenize
grows order-equivalent substitution, and Reduce consumes the FDs every
OD implies. Three relations pin it:

* On contexts carrying random ODs, the memoized operations agree with
  the OD-generalized naive references (:mod:`repro.core.reference`:
  plain BFS reachability over base edges, textbook closure, no memo) —
  fresh memos, warmed memos, and the memoization kill switch.
* Reduce degrades exactly to the FD-only algorithm: replacing the OD
  set with just its implied FDs leaves every reduction unchanged, so
  OD-aware reduce equals the naive reference under FD-only inputs.
* A lying cached Test Order verdict — the table where OD conclusions
  about sort interchangeability live — is caught by the differential
  config-matrix oracle and shrunk to a minimal repro (the OD twin of
  ``tests/verify/test_shrink.py``'s reduce-memo poison).
"""

import random

import pytest

from repro.core import (
    clear_memos,
    cover_order,
    homogenize_order,
    memoization_disabled,
    reduce_order,
)
from repro.core import test_order as check_order
from repro.core.test import test_order_naive as check_order_naive
from repro.core.context import OrderContext
from repro.core.fd import fd
from repro.core.od import EMPTY_ODS, OrderDependency
from repro.core.ordering import OrderKey, OrderSpec, SortDirection
from repro.core.reference import (
    cover_order_reference,
    homogenize_order_reference,
    naive_od_flips,
    reduce_order_reference,
)
from repro.core.reference import test_order_reference as check_order_reference
from repro.expr import col

POOL = [col(table, f"c{i}") for table in ("t", "u") for i in range(5)]


def random_ods(rng):
    """A random OD set over the pool: one-way edges, equivalences, and
    the occasional direction flip, so closures chain and cycle."""
    ods = EMPTY_ODS
    for _ in range(rng.randint(1, 4)):
        source, target = rng.sample(POOL, 2)
        flip = rng.random() < 0.3
        if rng.random() < 0.4:
            ods = ods.add_equivalence(source, target, flip=flip)
        else:
            ods = ods.add(OrderDependency(source, target, flip))
    return ods


def random_context(rng):
    ctx = OrderContext.empty()
    for _ in range(rng.randint(0, 3)):
        first, second = rng.sample(POOL, 2)
        ctx = ctx.with_equality(first, second)
    for _ in range(rng.randint(0, 2)):
        ctx = ctx.with_constant(rng.choice(POOL))
    for _ in range(rng.randint(0, 2)):
        head = rng.sample(POOL, rng.randint(1, 2))
        tail = rng.sample(POOL, rng.randint(1, 3))
        ctx = ctx.with_fd(fd(head, tail))
    if rng.random() < 0.4:
        ctx = ctx.with_key(rng.sample(POOL, rng.randint(1, 2)))
    return ctx.with_ods(random_ods(rng))


def random_spec(rng):
    length = rng.randint(0, 4)
    columns = rng.sample(POOL, length) if length else []
    return OrderSpec(
        OrderKey(
            column,
            SortDirection.DESC if rng.random() < 0.3 else SortDirection.ASC,
        )
        for column in columns
    )


def assert_agreement(rng, ctx):
    spec = random_spec(rng)
    other = random_spec(rng)
    targets = frozenset(rng.sample(POOL, rng.randint(1, 6)))

    expected_reduce = reduce_order_reference(spec, ctx)
    expected_test = check_order_reference(spec, other, ctx)
    expected_cover = cover_order_reference(spec, other, ctx)
    expected_homogenize = homogenize_order_reference(spec, targets, ctx)

    # Twice each: first call populates the memo, second call reads it.
    for _ in range(2):
        assert reduce_order(spec, ctx) == expected_reduce
        assert check_order(spec, other, ctx) == expected_test
        assert cover_order(spec, other, ctx) == expected_cover
        assert homogenize_order(spec, targets, ctx) == expected_homogenize

    # The kill switch must not change answers either.
    with memoization_disabled():
        assert reduce_order(spec, ctx) == expected_reduce
        assert check_order(spec, other, ctx) == expected_test
        assert cover_order(spec, other, ctx) == expected_cover
        assert homogenize_order(spec, targets, ctx) == expected_homogenize


@pytest.mark.parametrize("seed", range(40))
def test_od_augmented_ops_match_reference(seed):
    clear_memos()
    rng = random.Random(seed)
    ctx = random_context(rng)
    for _ in range(6):
        assert_agreement(rng, ctx)


@pytest.mark.parametrize("seed", range(40))
def test_an_order_satisfies_each_of_its_own_prefixes(seed):
    """The one fact join pruning's unbuilt drop rests on: whatever the
    context — FDs, equivalences, constants, ODs, DESC keys, the
    one-record condition — ``P`` satisfies ``P.prefix(k)`` for every
    ``k``, because Reduce Order rewrites a key using only the keys
    before it (so the reduced prefix is a prefix of the reduced ``P``).
    The naive test of the disabled build agrees by definition."""
    clear_memos()
    rng = random.Random(seed)
    ctx = random_context(rng)
    for context in (ctx, ctx.with_key([])):
        for _ in range(6):
            spec = random_spec(rng)
            for length in range(len(spec) + 1):
                prefix = spec.prefix(length)
                assert check_order(prefix, spec, context)
                assert check_order_reference(prefix, spec, context)
                assert check_order_naive(prefix, spec)
                assert reduce_order(prefix, context).is_prefix_of(
                    reduce_order(spec, context)
                )
                with memoization_disabled():
                    assert check_order(prefix, spec, context)


@pytest.mark.parametrize("seed", range(25))
def test_reduce_consumes_only_implied_fds(seed):
    """Replacing the OD set by just its implied FDs leaves reduction
    unchanged: Reduce is FD-only, the directional content of an OD is
    consumed by Test/Homogenize alone."""
    clear_memos()
    rng = random.Random(1000 + seed)
    with_ods = random_context(rng)
    # ``with_ods.fds`` already carries the folded implied FDs (the
    # constructor folds them), so rebuilding without the OD set is the
    # "same FDs, no directional facts" context.
    fd_only = OrderContext(
        equivalences=with_ods.equivalences,
        fds=with_ods.fds,
        constants=with_ods.constants,
    )
    assert fd_only.ods.is_empty()
    for _ in range(8):
        spec = random_spec(rng)
        assert reduce_order(spec, with_ods) == reduce_order(spec, fd_only)
        assert reduce_order(spec, fd_only) == reduce_order_reference(
            spec, fd_only
        )


def test_closure_flips_match_naive_bfs():
    """ODSet's cached closure agrees with brute-force BFS reachability
    on every pool pair, flip by flip."""
    for seed in range(30):
        rng = random.Random(2000 + seed)
        ods = random_ods(rng)
        for source in POOL:
            for target in POOL:
                expected = naive_od_flips(ods, source, target)
                assert set(ods.flips(source, target)) == expected, (
                    f"closure disagrees with BFS on {source} -> {target} "
                    f"under {ods!r}"
                )


def test_projected_edges_are_transitively_sound():
    """``projected`` keeps only in-scope columns but must not invent
    reachability: every surviving flip is BFS-derivable in the base."""
    for seed in range(20):
        rng = random.Random(3000 + seed)
        ods = random_ods(rng)
        keep = rng.sample(POOL, rng.randint(1, 4))
        projected = ods.projected(keep)
        for edge in projected:
            assert edge.source in keep and edge.target in keep
            assert edge.flip in naive_od_flips(ods, edge.source, edge.target)
        # And it must not lose reachability among kept columns.
        for source in keep:
            for target in keep:
                if source == target:
                    continue
                for flip in naive_od_flips(ods, source, target):
                    assert flip in naive_od_flips(projected, source, target)


class _LyingTest(dict):
    """A Test Order memo claiming every property satisfies everything —
    the cached form of a false order dependency."""

    def get(self, key, default=None):
        return True


def test_lying_od_cache_is_caught_and_shrunk(monkeypatch):
    """The differential matrix must catch a poisoned Test Order cache
    (sorts elided that the data needs) and shrink it to a tiny repro."""
    from repro.core import context as context_module
    from repro.core import memo as memo_module
    from repro.verify.gen import QueryGenerator, generate_schema
    from repro.verify.oracle import check_query, full_matrix
    from repro.verify.shrink import shrink

    def poisoned_memo_for(fingerprint):
        memo = memo_module.ContextMemo()
        memo.test = _LyingTest()
        return memo

    monkeypatch.setattr(context_module, "memo_for", poisoned_memo_for)
    try:
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
            "lying Test Order cache produced no oracle mismatch in 40 "
            "queries — the differential oracle is not sensitive to a "
            "false order-dependency verdict"
        )

        result = shrink(schema, failing, configs)
        assert result.mismatches, "shrinker lost the failure"
        assert result.spec.clause_count() <= 3, (
            f"repro not minimal: {result.spec.clause_count()} clauses "
            f"({result.sql})"
        )
        case = result.pytest_case("test_emitted_repro")
        compile(case, "<emitted>", "exec")
    finally:
        clear_memos()
