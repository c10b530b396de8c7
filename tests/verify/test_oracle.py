"""Unit coverage for the differential oracle itself.

The oracle must (a) stay green on a correct engine, and (b) actually
fire on each mismatch kind — an oracle that cannot fail verifies
nothing. The end-to-end injected-bug path lives in ``test_shrink.py``.
"""

from repro import Column, Database, OptimizerConfig, TableSchema
from repro.sqltypes import INTEGER
from repro.verify.oracle import (
    Mismatch,
    check_query,
    full_matrix,
    output_order_positions,
    run_audit_battery,
    run_fuzz,
    tier1_matrix,
    _order_violation,
)


def tiny_db():
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
            primary_key=("x",),
        ),
        rows=[(1, 10), (2, 5), (3, None)],
    )
    return db


def test_full_matrix_covers_all_toggle_combinations():
    configs = full_matrix()
    assert len(configs) == 33  # 2^5 feature combos + master-off baseline
    combos = {
        (
            c.enable_reduction,
            c.enable_cover,
            c.enable_sort_ahead,
            c.enable_hash_join,
            c.enable_partial_sort,
        )
        for name, c in configs.items()
        if name != "disabled"
    }
    assert len(combos) == 32
    assert not configs["disabled"].order_optimization
    for config in configs.values():
        assert config.enable_hash_join == config.enable_hash_group_by


def test_tier1_matrix_matches_historical_configs():
    assert set(tier1_matrix()) == {
        "full",
        "disabled",
        "no-hash",
        "no-sortahead",
        "no-partial-sort",
        "no-partitioning",
    }


def test_green_on_correct_engine():
    db = tiny_db()
    assert check_query(db, "select x, y from t order by x desc") == []
    assert check_query(db, "select sum(y) as s from t") == []


def test_detects_row_mismatch_against_forced_expectation():
    db = tiny_db()
    mismatches = check_query(
        db,
        "select x from t",
        tier1_matrix(),
        expected=[(999,)],
    )
    assert len(mismatches) == len(tier1_matrix())
    assert {m.kind for m in mismatches} == {"rows"}


def test_order_violation_detection():
    plan = [(0, False)]
    assert _order_violation([(1,), (2,), (3,)], plan) is None
    assert _order_violation([(2,), (1,)], plan) is not None
    # Descending direction flips the expectation.
    descending = [(0, True)]
    assert _order_violation([(3,), (2,)], descending) is None
    assert _order_violation([(2,), (3,)], descending) is not None


def test_output_order_positions_skips_hidden_columns():
    db = tiny_db()
    positions = output_order_positions(
        db, "select y from t order by x, y desc"
    )
    # x is not selected (hidden); only y's position survives.
    assert positions == [(0, True)]


def test_error_reported_as_mismatch():
    db = tiny_db()
    configs = {"full": OptimizerConfig()}
    mismatches = check_query(db, "select nope from t", configs)
    assert mismatches and all(
        isinstance(m, Mismatch) and m.kind == "error" for m in mismatches
    )


def test_audit_battery_green():
    assert run_audit_battery() == []


def test_audit_catches_a_lying_fd_on_a_computed_projection():
    """Negative control: the final projection claims ``{a, b} -> {s}``
    for ``a + b as s``; a harvest that dropped ``b`` from the head would
    claim ``{a} -> {s}``, which the rows refute (a = 1 gives s = 2 and
    s = 3). An audit that stays green on that claim verifies nothing.
    """
    from dataclasses import replace

    from repro.api import plan_query
    from repro.core.fd import FDSet, fd
    from repro.expr import col
    from repro.verify.oracle import audit_node

    db = Database()
    db.create_table(
        TableSchema("u", [Column("a", INTEGER), Column("b", INTEGER)]),
        rows=[(1, 1), (1, 2), (2, 2)],
    )
    root = plan_query(db, "select a, b, a + b as s from u").root
    a, b, s = col("u", "a"), col("u", "b"), col("", "s")
    assert fd([a, b], [s]) in root.properties.fds
    assert audit_node(db, root) == []
    lying = replace(
        root, properties=replace(root.properties, fds=FDSet([fd([a], [s])]))
    )
    violations = audit_node(db, lying)
    assert violations == [f"FD {fd([a], [s])} violated at {root.describe()}"]


def test_small_fuzz_run_green():
    report = run_fuzz(seed=99, n=10, configs=tier1_matrix())
    assert report.ok, report.summary()
    assert report.queries == 10
    assert report.executions == 60  # 10 queries x 6 tier-1 configs
