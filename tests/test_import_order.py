"""Tier-1 wrapper around ``tools/check_imports.py``.

The layering in CLAUDE.md is enforceable, so enforce it: any upward
import inside ``src/repro`` fails the suite with the same message the
standalone lint prints.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_imports", REPO_ROOT / "tools" / "check_imports.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_upward_imports():
    checker = _load_checker()
    problems = checker.check(REPO_ROOT / "src")
    assert not problems, "\n".join(problems)


def test_service_layer_is_registered_above_api():
    checker = _load_checker()
    order = checker.LAYERS
    assert order.index("service") > order.index("api")
    assert order.index("service") < order.index("tpcd")


def test_errors_must_stay_an_import_leaf(tmp_path):
    # The exception taxonomy is imported by every layer; the checker
    # must reject any repro import inside it, even a downward-looking
    # one, before the ordinary layer rules run.
    checker = _load_checker()
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "errors.py").write_text("from repro.sqltypes import X\n")
    problems = checker.check(tmp_path / "src")
    assert any("import leaf" in problem for problem in problems)


def test_statement_layers_may_not_import_concurrency(tmp_path):
    # One statement, one thread: the planner and executor layers start
    # no threads and take no locks; the service layer may.
    checker = _load_checker()
    package = tmp_path / "src" / "repro"
    (package / "executor").mkdir(parents=True)
    (package / "service").mkdir()
    (package / "__init__.py").write_text("")
    (package / "executor" / "exchange.py").write_text(
        "import heapq\nimport queue\nfrom threading import Thread\n"
    )
    (package / "service" / "pool.py").write_text(
        "from concurrent.futures import ThreadPoolExecutor\n"
    )
    problems = checker.check(tmp_path / "src")
    assert len(problems) == 2, problems
    assert all("exchange.py" in problem for problem in problems)
