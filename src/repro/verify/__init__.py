"""repro.verify — the differential plan-oracle subsystem.

A reusable correctness harness for the order-optimization engine:

* :mod:`repro.verify.gen` — seeded random schema + query generators;
* :mod:`repro.verify.reference` — the brute-force SQL evaluator used as
  the ground-truth oracle;
* :mod:`repro.verify.oracle` — config-matrix differential execution,
  output-order checking, and per-node plan-property auditing;
* :mod:`repro.verify.shrink` — delta-debugging minimizer that turns a
  failure into a minimal repro and a ready-to-paste pytest case;
* :mod:`repro.verify.faults` — deterministic fault injection that trips
  cancellation tokens mid-plan (compiled out of production runs) to
  exercise the service's timeout/cancellation contract.

Runs standalone as ``python -m repro.verify {smoke,fuzz,audit}`` and
backs the tier-1 fuzz/property tests.
"""

from repro.verify.faults import inject_token_faults
from repro.verify.gen import (
    GenConfig,
    QueryGenerator,
    QuerySpec,
    SchemaSpec,
    TableSpec,
    generate_schema,
)
from repro.verify.oracle import (
    FuzzFailure,
    FuzzReport,
    Mismatch,
    audit_node,
    audit_optimistic_context,
    audit_plan,
    check_query,
    full_matrix,
    normalized,
    run_audit_battery,
    run_fuzz,
    tier1_matrix,
)
from repro.verify.reference import reference_query
from repro.verify.shrink import ShrinkResult, shrink

__all__ = [
    "inject_token_faults",
    "GenConfig",
    "QueryGenerator",
    "QuerySpec",
    "SchemaSpec",
    "TableSpec",
    "generate_schema",
    "FuzzFailure",
    "FuzzReport",
    "Mismatch",
    "audit_node",
    "audit_optimistic_context",
    "audit_plan",
    "check_query",
    "full_matrix",
    "normalized",
    "run_audit_battery",
    "run_fuzz",
    "tier1_matrix",
    "reference_query",
    "ShrinkResult",
    "shrink",
]
