"""Two-engine fleet-replay differential (the verify-layer harness).

Feedback rewrites estimates and re-pins plans; it may never change a
result byte. The harness replays a full feedback round under the
vector and interpreted engines and requires byte-identical
rows within each engine (across the baseline / re-optimized / final
replays) and across engines (final rows, statement by statement), with
no regression admitted by the gate anywhere.
"""

import pytest

from repro.verify.fleet import ENGINES, run_fleet_differential


@pytest.mark.slow
def test_engine_differential_deep():
    report = run_fleet_differential(rounds=4)
    assert report.ok(), report.failures


def test_engine_differential():
    report = run_fleet_differential(rounds=2)
    assert report.ok(), report.failures
    assert report.statements == 16
    assert set(report.qerror_before) == set(ENGINES)
    # Feedback must help (or at least not hurt) under every engine —
    # the corrections are engine-independent statistics.
    for engine in ENGINES:
        assert report.qerror_after[engine] <= report.qerror_before[engine]
    assert report.regressions_admitted == 0
