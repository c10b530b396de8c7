"""Plan-identity pin: the chosen plan of every pinned statement, to the
last cost digit.

Each statement is planned under the default config and
``OptimizerConfig.disabled()`` (the paper figures also under the
DB2-faithful pair) and a sha256 of
``plan.root.explain(show_order=True, show_cost=True)`` is compared with
``plan_identity.json``. Costs and order annotations are in the digest
on purpose: ``Plan.fingerprint()`` would miss a tie broken differently
or a property that changed without changing the operator tree.

Join enumeration breaks exact cost ties by candidate position, and the
position follows the iteration order of a ``frozenset`` of aliases — so
the chosen plan depends on ``PYTHONHASHSEED`` (``a JOIN b`` against
``b JOIN a`` at equal cost). The digests are therefore computed in a
child interpreter with ``PYTHONHASHSEED=0``, the setting ``perf/run.py``
gives its own children.

A change that is meant to leave the search space and the cost model
alone must leave the JSON alone. A change that is meant to move plans
regenerates it and says so::

    PYTHONHASHSEED=0 PYTHONPATH=src:. python tests/optimizer/test_plan_identity.py
"""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.api import plan_query
from repro.bench.experiments import (
    FIGURE1_SQL,
    FIGURE6_SQL,
    figure1_database,
    figure6_database,
)
from repro.optimizer import OptimizerConfig
from repro.tpcd import QUERY_3
from repro.verify.gen import QueryGenerator, generate_schema

from perf.workloads import _JOIN_TEMPLATES
from tests.optimizer.perf_statements import seed1_statements

PINNED = Path(__file__).with_name("plan_identity.json")
REPO_ROOT = Path(__file__).resolve().parents[2]

CONFIGS = {
    "default": OptimizerConfig,
    "disabled": OptimizerConfig.disabled,
}
FIGURE_CONFIGS = {
    **CONFIGS,
    "faithful-on": lambda: OptimizerConfig.db2_faithful(True),
    "faithful-off": lambda: OptimizerConfig.db2_faithful(False),
}


def _tpcd_statements(database):
    """(name, sql) for the perf workloads: the first seed-1 statement of
    every class, plus the ``order_join`` host-variable templates."""
    for name in ("adhoc_plan", "scan_agg", "service_mixed"):
        for cls, sql in seed1_statements(database, name).items():
            yield f"{name}/{cls}", sql
    for cls, sql, _binder in _JOIN_TEMPLATES:
        yield f"order_join/{cls}", sql


def _digests(database, statements, configs=CONFIGS):
    found = {}
    for name, sql in statements:
        for label, make_config in configs.items():
            plan = plan_query(database, sql, config=make_config())
            text = plan.root.explain(show_order=True, show_cost=True)
            found[f"{name}/{label}"] = hashlib.sha256(text.encode()).hexdigest()
    return found


def tpcd_digests(database):
    found = _digests(database, _tpcd_statements(database))
    found.update(_digests(database, [("paper/query3", QUERY_3)], FIGURE_CONFIGS))
    return found


def figure_digests():
    found = _digests(
        figure1_database(), [("paper/fig1", FIGURE1_SQL)], FIGURE_CONFIGS
    )
    found.update(
        _digests(figure6_database(), [("paper/fig6", FIGURE6_SQL)], FIGURE_CONFIGS)
    )
    return found


def corpus_digests(seed=7, count=50):
    schema = generate_schema(seed)
    generator = QueryGenerator(schema, seed)
    statements = [
        (f"seed{seed}/{index:02d}", generator.generate().sql())
        for index in range(count)
    ]
    return _digests(schema.build(), statements)


def all_digests():
    from repro.tpcd import build_tpcd_database

    database = build_tpcd_database(scale_factor=0.002, buffer_pool_pages=2048)
    return {**tpcd_digests(database), **figure_digests(), **corpus_digests()}


@pytest.fixture(scope="module")
def found():
    """The digests, computed by this file run as a script under
    ``PYTHONHASHSEED=0`` (see the module docstring)."""
    environment = dict(os.environ, PYTHONHASHSEED="0")
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    done = subprocess.run(
        [sys.executable, __file__, "--print"],
        env=environment, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_the_pin_covers_every_group(found):
    counts = Counter(name.split("/")[0] for name in found)
    per_statement = len(CONFIGS)
    assert counts == {
        "adhoc_plan": 9 * per_statement,
        "scan_agg": 4 * per_statement,
        "service_mixed": 4 * per_statement,
        "order_join": 6 * per_statement,
        "seed7": 50 * per_statement,
        "paper": 3 * len(FIGURE_CONFIGS),
    }


def test_chosen_plans_and_costs_are_byte_identical(found):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    moved = sorted(
        name for name in found.keys() | pinned.keys()
        if found.get(name) != pinned.get(name)
    )
    assert not moved, f"chosen plans (or their costs) moved: {moved}"


if __name__ == "__main__":
    digests = json.dumps(all_digests(), indent=1, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--print"]:
        sys.stdout.write(digests)
    else:
        PINNED.write_text(digests, encoding="utf-8")
        print(f"pinned {digests.count(':')} plans in {PINNED}")
