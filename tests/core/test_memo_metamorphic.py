"""Metamorphic pinning of the memoized algebra against naive oracles.

The indexed, memoized front doors (``reduce_order``, ``test_order``,
``cover_order``, ``homogenize_order``) must agree *exactly* with the
reference implementations in :mod:`repro.core.reference`, which run the
seed's algorithms — textbook closure over materialized pairwise
equivalence FDs, no head index, no memo tables — on every input.

We generate seeded random contexts (equivalences, constants, explicit
FDs, keys over a small column pool) and random specifications, and
compare on:

* fresh memo tables (every call a miss),
* warmed memo tables (every call a hit — the cached value must equal
  the recomputed one).
"""

import random

import pytest

from repro.core import (
    clear_memos,
    cover_order,
    homogenize_order,
    reduce_order,
)
from repro.core import test_order as check_order
from repro.core.test import test_order_naive as check_order_naive
from repro.core.context import OrderContext
from repro.core.fd import fd
from repro.core.ordering import OrderKey, OrderSpec, SortDirection
from repro.core.reference import (
    cover_order_reference,
    homogenize_order_reference,
    reduce_order_reference,
)
from repro.core.reference import test_order_reference as check_order_reference
from repro.expr import col

POOL = [col(table, f"c{i}") for table in ("t", "u") for i in range(5)]


def random_context(rng):
    ctx = OrderContext.empty()
    for _ in range(rng.randint(0, 4)):
        first, second = rng.sample(POOL, 2)
        ctx = ctx.with_equality(first, second)
    for _ in range(rng.randint(0, 2)):
        ctx = ctx.with_constant(rng.choice(POOL))
    for _ in range(rng.randint(0, 3)):
        head = rng.sample(POOL, rng.randint(1, 2))
        tail = rng.sample(POOL, rng.randint(1, 3))
        ctx = ctx.with_fd(fd(head, tail))
    if rng.random() < 0.5:
        ctx = ctx.with_key(rng.sample(POOL, rng.randint(1, 2)))
    return ctx


def random_spec(rng):
    length = rng.randint(0, 5)
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


@pytest.mark.parametrize("seed", range(40))
def test_memoized_ops_match_reference(seed):
    clear_memos()
    rng = random.Random(seed)
    ctx = random_context(rng)
    for _ in range(6):
        assert_agreement(rng, ctx)


@pytest.mark.parametrize("seed", range(40))
def test_an_order_satisfies_each_of_its_own_prefixes(seed):
    """The one fact join pruning's unbuilt drop rests on: whatever the
    context — FDs, equivalences, constants, DESC keys, the one-record
    condition — ``P`` satisfies ``P.prefix(k)`` for every ``k``,
    because Reduce Order rewrites a key using only the keys before it
    (so the reduced prefix is a prefix of the reduced ``P``). The naive
    test of the disabled build agrees by definition."""
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


def test_shared_fingerprint_context_cannot_poison_results():
    """Two content-equal contexts share memo tables; a third, different
    context must not see their cached answers."""
    clear_memos()
    rng = random.Random(1234)
    base = random_context(rng)
    twin = OrderContext(
        equivalences=base.equivalences,
        fds=base.fds,
        constants=base.constants,
    )
    assert base.fingerprint() == twin.fingerprint()
    spec = random_spec(rng)
    assert reduce_order(spec, base) == reduce_order(spec, twin)
    assert reduce_order(spec, twin) == reduce_order_reference(spec, twin)

    different = base.with_constant(POOL[0]).with_equality(POOL[1], POOL[2])
    assert reduce_order(spec, different) == reduce_order_reference(
        spec, different
    )
