"""Tier-1 check that the documents cite only things that exist.

Every repo path, ``BENCH_*.json`` snapshot and ``python -m repro.bench``
experiment id named in the documents a new session reads first must
resolve against the checkout, so deleting or renaming a file fails the
suite until the prose that points at it is made true again.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.bench import available_experiments

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = (
    "README.md",
    "CLAUDE.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/architecture.md",
    ".claude/skills/verify/SKILL.md",
    "tools/check_imports.py",
)
PATH = re.compile(
    r"\b(?:src|tests|tools|perf|docs|examples|benchmarks)/[\w./-]*\.(?:py|md|json)\b"
)
SNAPSHOT = re.compile(r"\bBENCH_\w+\.json\b")
BENCH_COMMAND = re.compile(
    r"python -m\s+repro\.bench\s+([a-z][a-z0-9_]*(?:[ \t]+[a-z][a-z0-9_]*)*)"
)


def _text(document):
    text = (REPO_ROOT / document).read_text()
    if document.endswith(".py"):
        return ast.get_docstring(ast.parse(text))
    return text


@pytest.mark.parametrize("document", DOCUMENTS)
def test_cited_files_exist(document):
    text = _text(document)
    cited = set(PATH.findall(text)) | set(SNAPSHOT.findall(text))
    missing = sorted(p for p in cited if not (REPO_ROOT / p).exists())
    assert not missing, f"{document} cites missing files: {missing}"


@pytest.mark.parametrize("document", DOCUMENTS)
def test_cited_experiments_are_registered(document):
    known = {experiment_id for experiment_id, _ in available_experiments()}
    known |= {"list", "all", "load"}
    cited = {
        experiment_id
        for command in BENCH_COMMAND.findall(_text(document))
        for experiment_id in command.split()
    }
    assert cited <= known, f"{document} cites unregistered: {cited - known}"
