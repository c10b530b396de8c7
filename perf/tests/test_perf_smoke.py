"""Functional check of the benchmark itself (``pytest perf/tests``).

Smoke size: SF 0.002, one untraced and one traced pass per workload,
in-process; under half a minute in total. It checks the contract the
benchmark makes with its readers - names, units, seeded inputs, span
structure, clean removal of the tracing wrappers - not performance.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import harness, layers, trace as tracing  # noqa: E402
from perf.workloads import WORKLOADS, statement_digest  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results():
    """One traced smoke run per workload (it also carries the
    end-to-end metrics of its untraced pass)."""
    return {
        name: harness.run_workload(name, seed=1, seconds=0, trace=True, smoke=True)
        for name in WORKLOADS
    }


def _declared(section):
    return [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[section]]


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert _declared("end_to_end") == list(harness.END_TO_END)
    assert _declared("per_layer") == list(layers.PER_LAYER)
    names = [name for name, _unit, _better in harness.END_TO_END + layers.PER_LAYER]
    names += list(WORKLOADS)
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert BENCHMARK["paths"] == ["perf"]
    # The builder contract's cap; perf/README.md says why this sandbox
    # supports nothing tighter for the timings.
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_run_length_is_not_a_setting():
    """run.py takes ``--seconds`` (the acceptance driver passes it) but
    only BENCHMARK.json's value, so two sides of a comparison cannot
    differ in run length."""
    command = [sys.executable, str(REPO_ROOT / "perf" / "run.py"),
               "--workload", "adhoc_plan", "--seconds"]
    refused = subprocess.run(
        command + [str(BENCHMARK["run_seconds"] + 1)],
        capture_output=True, text=True, timeout=60,
    )
    assert refused.returncode == 2
    assert "run_seconds" in refused.stderr


def test_statement_lists_follow_the_seed():
    facts = {"customers": 300}
    for workload in WORKLOADS.values():
        first = workload.generate(1, workload.smoke, facts)
        again = workload.generate(1, workload.smoke, facts)
        other = workload.generate(2, workload.smoke, facts)
        assert len(first) == workload.clients
        assert statement_digest(first) == statement_digest(again)
        assert statement_digest(first) != statement_digest(other)


def test_every_workload_reports_every_metric(results):
    for name, result in results.items():
        assert result["failed"] == 0, result["failures"]
        assert result["attempted"] >= 1
        for key in ("commit", "python", "cpu_count", "scale_factor", "seed",
                    "passes", "n_statements", "clients"):
            assert key in result["env"], (name, key)
        for metric, unit, _better in harness.END_TO_END:
            reported = result["end_to_end"][metric]
            assert reported["unit"] == unit
            assert reported["value"] > 0, (name, metric)
        for metric, unit, _better in layers.PER_LAYER:
            reported = result["per_layer"][metric]
            assert reported["unit"] == unit
            assert reported["value"] >= 0, (name, metric)


def test_each_workload_stresses_its_layer(results):
    share = lambda name, metric: results[name]["per_layer"][metric]["value"]  # noqa: E731
    assert share("adhoc_plan", "trace.planning_share") >= 0.70
    for name in ("scan_agg", "order_join"):
        assert share(name, "trace.planning_share") <= 0.05
        assert share(name, "trace.executor_share") >= 0.70
    assert share("service_mixed", "trace.service_share") >= 0.20
    for name in ("adhoc_plan", "order_join"):
        assert share(name, "trace.unattributed_share") <= 0.10
    assert share("scan_agg", "service.cache_hit_ratio") == 1.0
    # Modelled elapsed time exists per statement only with one client.
    for name in ("adhoc_plan", "scan_agg", "order_join"):
        assert share(name, "executor.sim_elapsed_p50_ms") > 0
    assert share("service_mixed", "executor.sim_elapsed_p50_ms") == 0


def test_spans_nest_and_self_times_are_not_negative(results):
    for name, result in results.items():
        lines = (REPO_ROOT / result["trace_file"]).read_text().splitlines()
        spans = [json.loads(line) for line in lines]
        by_id = {span["id"]: span for span in spans}
        roots = [span for span in spans if span["name"] == tracing.STATEMENT]
        assert len(roots) == result["env"]["statements_per_pass"], name
        for span in spans:
            assert span["end"] >= span["start"]
            parent = by_id.get(span["parent"])
            if parent is None:
                continue
            assert parent["stmt_id"] == span["stmt_id"], (name, span)
            assert parent["start"] <= span["start"], (name, span, parent)
            assert span["end"] <= parent["end"], (name, span, parent)
        assert min(tracing.self_times(spans).values()) >= 0.0


def test_wrappers_are_removed_after_a_traced_pass(results):
    import importlib

    from repro.executor.operators import PhysicalOperator
    from repro.optimizer import Optimizer
    from repro.service import PlanCache
    from repro.storage import Database

    patched = [
        (PlanCache, "plan_for"), (Optimizer, "plan_sql"),
        (PhysicalOperator, "execute"), (Database, "analyze_table"),
        (importlib.import_module("repro.service.parameterize"), "parameterize"),
        (importlib.import_module("repro.api"), "build_executor"),
        (importlib.import_module("repro.executor.build"), "build_executor"),
    ]
    optimizer_module = importlib.import_module("repro.optimizer.optimizer")
    patched += [
        (optimizer_module, attribute)
        for attribute in ("parse_query", "rewrite", "normalize",
                          "run_order_scan", "enumerate_joins", "finalize_plans")
    ]
    for owner, attribute in patched:
        assert not hasattr(getattr(owner, attribute), "__wrapped__"), attribute
    from repro.parser import parse_query

    assert optimizer_module.parse_query is parse_query
