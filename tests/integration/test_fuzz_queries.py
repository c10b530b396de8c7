"""Randomized query fuzzing, rebased onto :mod:`repro.verify`.

The generator, reference oracle, and config-matrix diffing all live in
the library now (``repro.verify.gen`` / ``repro.verify.oracle``); this
module just drives them inside the tier-1 budget:

* the tier-1 pass runs 40 seeds x 3 queries under the six tier-1
  configs (the seed test's historical four plus ``no-partial-sort``
  and ``no-partitioning``);
* the ``slow``-marked deep pass runs 500 queries under the *full*
  33-config feature-toggle matrix with plan-property auditing — opt in
  with ``pytest -m slow`` (or run ``python -m repro.verify fuzz``).
"""

import pytest

from repro.verify.gen import GenConfig, QueryGenerator, generate_schema
from repro.verify.oracle import (
    check_query,
    full_matrix,
    run_fuzz,
    tier1_matrix,
)
from repro.verify.shrink import shrink


@pytest.fixture(scope="module")
def harness():
    schema = generate_schema(2026)
    return schema, schema.build()


@pytest.fixture(scope="module")
def configs():
    return tier1_matrix()


@pytest.mark.parametrize("seed", range(40))
def test_fuzzed_query_matches_reference(harness, configs, seed):
    schema, db = harness
    generator = QueryGenerator(schema, seed)
    for _ in range(3):
        spec = generator.generate()
        mismatches = check_query(db, spec.sql(), configs)
        assert not mismatches, "\n".join(str(m) for m in mismatches)


@pytest.mark.slow
def test_deep_fuzz_full_matrix_with_audit():
    """500 queries, all 33 configs, auditing the full-featured plan.

    On failure the minimal shrunk repro is part of the message — paste
    it into a regression test rather than chasing the seed.
    """
    report = run_fuzz(
        seed=7,
        n=500,
        gen_config=GenConfig(tables=4),
        configs=full_matrix(),
        audit_configs=("full",),
    )
    details = []
    for failure in report.failures:
        if failure.spec.raw is None:
            result = shrink(failure.schema, failure.spec, full_matrix())
            details.append(result.pytest_case())
        else:
            details.append(failure.spec.sql())
    assert report.ok, report.summary() + "\n" + "\n".join(details)
