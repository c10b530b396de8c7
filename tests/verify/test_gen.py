"""Generator determinism: a fixed seed pins schema and SQL byte-for-byte.

Fuzz coverage is defined by the draw sequence; a refactor that silently
changes it would quietly re-aim the whole differential harness. Two
guards: independent generator instances must agree exactly, and a
pinned digest of the seed-7 corpus must not drift (update the constant
*consciously* when changing the generator).
"""

import hashlib

from repro.verify.gen import GenConfig, QueryGenerator, generate_schema

# sha256 of the first 50 seed-7 queries joined by newlines (see
# corpus() below). Changing the generator changes this — update it
# deliberately, never to silence a failure you don't understand.
#
# Last deliberate update: the schema generator now hash- or
# range-partitions a random subset of fact/child tables so the
# differential matrix exercises partition pruning, exchange operators,
# and partition-wise joins. Partitioning draws come from an rng stream
# *independent* of the schema/query rngs (``partition-{seed}``), so the
# SQL draw sequence — and therefore this digest — is unchanged on
# purpose: the same pinned queries now also run against partitioned
# physical layouts. The digest was recomputed and verified identical.
#
# Previous update: the fact table gained a NOT NULL date column
# and the generator now emits monotonic derived select items
# (``val + 3 AS vplus``, ``year(d) AS dy``, ...) orderable by alias,
# monotone-wrapped join keys (``r.id + 1 = s.rid + 1``), and derived
# views with computed monotonic columns — so fuzzing exercises
# computed columns, not just plain column orders.
SEED7_CORPUS_SHA256 = (
    "5bf07270033423a36cbb16b100b77a243253cb83fedfe2b6069a51f15e32b7b8"
)


def corpus(seed: int, n: int = 50) -> str:
    schema = generate_schema(seed)
    generator = QueryGenerator(schema, seed)
    return "\n".join(generator.generate().sql() for _ in range(n))


def test_same_seed_byte_identical_sql():
    assert corpus(7) == corpus(7)
    assert corpus(123) == corpus(123)


def test_different_seeds_differ():
    assert corpus(7) != corpus(8)


def test_schema_generation_deterministic():
    first = generate_schema(11, GenConfig(tables=5))
    second = generate_schema(11, GenConfig(tables=5))
    assert [t.name for t in first.tables] == [t.name for t in second.tables]
    for a, b in zip(first.tables, second.tables):
        assert a.rows == b.rows
        assert a.indexes == b.indexes
        assert a.primary_key == b.primary_key


def test_seed7_corpus_pinned():
    digest = hashlib.sha256(corpus(7).encode()).hexdigest()
    assert digest == SEED7_CORPUS_SHA256, (
        "the seed-7 fuzz corpus changed; if the generator change is "
        "intentional, update SEED7_CORPUS_SHA256 here"
    )


def test_partitioning_assignment_deterministic():
    """Partition specs are seeded, varied, and never land on dims."""
    first = generate_schema(4, GenConfig(tables=5))
    second = generate_schema(4, GenConfig(tables=5))
    for a, b in zip(first.tables, second.tables):
        if a.partitioning is None:
            assert b.partitioning is None
        else:
            assert a.partitioning.describe() == b.partitioning.describe()
    for schema in (first, second):
        for table in schema.tables:
            if table.role == "dim":
                assert table.partitioning is None
    # Across a modest seed range both flavors must appear (coverage
    # guard: a generator change that stops emitting one kind should
    # fail loudly, like the corpus digest).
    kinds = {
        t.partitioning.kind
        for seed in range(12)
        for t in generate_schema(seed).tables
        if t.partitioning is not None
    }
    assert kinds == {"hash", "range"}


def test_row_scale_scales_rows():
    small = generate_schema(3, GenConfig(row_scale=0.5))
    big = generate_schema(3, GenConfig(row_scale=2.0))
    assert len(big.fact.rows) > len(small.fact.rows)


def test_table_count_configurable():
    wide = generate_schema(5, GenConfig(tables=5))
    assert len(wide.tables) == 5
    assert [t.role for t in wide.tables] == [
        "fact",
        "child",
        "dim",
        "child",
        "dim",
    ]


def test_single_table_schema_generates_queries():
    schema = generate_schema(1, GenConfig(tables=1))
    generator = QueryGenerator(schema, 1, GenConfig(tables=1))
    for _ in range(20):
        spec = generator.generate()
        assert spec.raw is None  # no children -> no unions/deriveds
        assert spec.tables == ("r",)
        assert "from r" in spec.sql()
