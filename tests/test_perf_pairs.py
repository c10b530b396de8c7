"""The verdict rules of ``tools/perf_pairs.py`` (the choosing-metrics
guide's): a gain needs at least nine pairs in ten and a median gap wider
than the parent's interquartile range; a regression is a median worse
by more than the bound; a parent spread wider than the bound leaves the
result unresolved. A per-layer metric has no bound: it is a gain or not
settled."""

import importlib.util
import json
import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", REPO_ROOT / "tools" / "perf_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_pairs = _load_tool()
judge, quartiles = perf_pairs.judge, perf_pairs.quartiles

# Ten parent runs with quartiles 99 / 100 / 101 (IQR 2) under the
# statistics module's default (exclusive) method.
PARENT = [96, 98, 99, 99, 100, 100, 101, 101, 102, 104]


def test_quartiles():
    assert quartiles(PARENT) == (98.75, 100.0, 101.25)
    assert quartiles([7]) == (7, 7, 7)


def test_a_gain_needs_nine_pairs_in_ten_and_a_gap_past_the_iqr():
    change = [value + 5 for value in PARENT]
    assert judge(PARENT, change, True, 0.25) == (10, "gain")
    # Nine pairs won still counts.
    nine = change[:9] + [PARENT[9] - 1]
    assert judge(PARENT, nine, True, 0.25) == (9, "gain")
    # Eight does not, however far apart the medians are.
    eight = change[:8] + [PARENT[8] - 1, PARENT[9] - 1]
    assert judge(PARENT, eight, True, 0.25) == (8, "within bound")


def test_winning_every_pair_inside_the_iqr_is_no_gain():
    change = [value + 1 for value in PARENT]
    assert judge(PARENT, change, True, 0.25) == (10, "within bound")


def test_lower_is_better_metrics_flip_the_sign():
    faster = [value - 5 for value in PARENT]
    assert judge(PARENT, faster, False, 0.25) == (10, "gain")
    assert judge(PARENT, faster, True, 0.25) == (0, "within bound")


def test_a_regression_is_a_median_worse_by_more_than_the_bound():
    worse = [value * 0.7 for value in PARENT]
    assert judge(PARENT, worse, True, 0.25) == (0, "regression")
    # 20 % worse stays inside a 25 % bound.
    assert judge(PARENT, [v * 0.8 for v in PARENT], True, 0.25)[1] == (
        "within bound"
    )
    assert judge(PARENT, [v * 1.3 for v in PARENT], False, 0.25)[1] == (
        "regression"
    )


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    spread = [50, 60, 70, 80, 100, 100, 120, 130, 140, 150]
    assert judge(spread, [v * 0.9 for v in spread], True, 0.25) == (
        0,
        "unresolved",
    )


def test_a_metric_without_a_bound_is_a_gain_or_not_settled():
    faster = [value - 5 for value in PARENT]
    assert judge(PARENT, faster, False) == (10, "gain")
    # Inside the IQR, or far worse: neither is settled without a bound.
    assert judge(PARENT, [v - 1 for v in PARENT], False) == (10, "not settled")
    assert judge(PARENT, [v * 2 for v in PARENT], False) == (0, "not settled")


def test_a_traced_side_runs_with_trace_on(monkeypatch, tmp_path):
    commands = []

    def fake_run(command, **kwargs):
        commands.append(command)
        line = json.dumps({"failed": 0, "metrics": {}})
        return subprocess.CompletedProcess(command, 0, f"table\n{line}\n", "")

    monkeypatch.setattr(perf_pairs.subprocess, "run", fake_run)
    perf_pairs.run_side(tmp_path, "adhoc_plan", 7, trace=True)
    perf_pairs.run_side(tmp_path, "adhoc_plan", 7)
    assert commands[0][-2:] == ["--trace", "1"]
    assert commands[1][-2:] == ["--trace", "0"]


def _runs(values, name="optimizer.enumerate_ms"):
    return [{"metrics": {name: {"value": value}}} for value in values]


def test_per_layer_tables_judge_by_direction_and_skip_absent_metrics(capsys):
    metrics = [
        {"name": "optimizer.enumerate_ms", "unit": "ms", "better": "lower"},
        {"name": "service.plan_for_miss_ms", "unit": "ms", "better": "lower"},
    ]
    perf_pairs.print_verdicts(
        "adhoc_plan", "HEAD", metrics,
        _runs(PARENT), _runs([value - 5 for value in PARENT]),
    )
    rows = capsys.readouterr().out.splitlines()
    change = [row for row in rows if " change " in row]
    assert len(change) == 1
    assert change[0].startswith("optimizer.enumerate_ms")
    assert change[0].endswith("10/10  gain")
