"""The perf/ workloads' seed-1 statement texts, for planner tests."""

from perf.workloads import WORKLOADS


def seed1_statements(database, workload_name):
    """``{class: sql}``: the first seed-1 statement of every class of one
    ``perf/`` workload, generated at the workload's real size."""
    workload = WORKLOADS[workload_name]
    facts = {"customers": database.store("customer").row_count()}
    texts = {}
    for statements in workload.generate(1, workload.size, facts):
        for statement in statements:
            texts.setdefault(statement.cls, statement.sql)
    return texts
