"""The committed benchmark trajectory: ``BENCH_<workload>.json`` at the
repository root, appended to by ``tools/perf_pairs.py --record``.

Each file is a JSON list of entries, one per recorded pairs run. The
schema is checked here, and so is the rule that makes the files a
trajectory: entries are only ever appended, so the entries committed at
``git HEAD`` are a prefix of the working file (checked only inside a git
checkout)."""

import json
import subprocess

import pytest

from tests.test_perf_pairs import REPO_ROOT, perf_pairs

ENTRY_KEYS = {
    "commit", "parent", "python", "cpus", "seeds", "traced", "failed",
    "metrics",
}
VERDICTS = {"gain", "regression", "within bound", "unresolved", "not settled"}
FILES = sorted(REPO_ROOT.glob("BENCH_*.json"))


def _check_entry(entry):
    assert set(entry) == ENTRY_KEYS
    assert isinstance(entry["commit"], str) and entry["commit"]
    assert len(entry["parent"]) == 40
    assert isinstance(entry["cpus"], int) and entry["cpus"] > 0
    assert entry["seeds"] and all(isinstance(s, int) for s in entry["seeds"])
    assert isinstance(entry["traced"], bool)
    assert isinstance(entry["failed"], int) and entry["failed"] >= 0
    assert entry["metrics"]
    for row in entry["metrics"].values():
        assert set(row) == {"parent", "change", "won", "pairs", "verdict"}
        assert row["pairs"] == len(entry["seeds"])
        assert 0 <= row["won"] <= row["pairs"]
        assert row["verdict"] in VERDICTS
        for side in ("parent", "change"):
            q = row[side]
            assert set(q) == {"q1", "median", "q3"}
            assert q["q1"] <= q["median"] <= q["q3"]


def test_the_trajectory_files_exist():
    assert FILES, "no BENCH_<workload>.json at the repository root"


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_entry_schema(path):
    entries = json.loads(path.read_text("utf-8"))
    assert isinstance(entries, list) and entries
    for entry in entries:
        _check_entry(entry)


def _committed(path):
    """The file's entries at ``git HEAD``: ``[]`` if it is not there
    yet, ``None`` outside a git checkout."""
    inside = subprocess.run(
        ["git", "rev-parse", "--is-inside-work-tree"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if inside.returncode or inside.stdout.strip() != "true":
        return None
    shown = subprocess.run(
        ["git", "show", f"HEAD:{path.name}"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    return json.loads(shown.stdout) if shown.returncode == 0 else []


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_entries_are_only_appended(path):
    committed = _committed(path)
    if committed is None:
        pytest.skip("not a git checkout")
    entries = json.loads(path.read_text("utf-8"))
    assert entries[: len(committed)] == committed


def test_record_appends_one_entry(tmp_path):
    path = tmp_path / "BENCH_w.json"
    perf_pairs.record(path, {"commit": "a"})
    perf_pairs.record(path, {"commit": "b"})
    assert json.loads(path.read_text("utf-8")) == [
        {"commit": "a"}, {"commit": "b"},
    ]
