"""``python -m repro.bench load``: a TPC-D build split by stage."""

from repro.bench.__main__ import main
from repro.bench.load import STAGES


def _stage_methods():
    return {
        (owner, name): getattr(owner, name)
        for _stage, owner, names in STAGES
        for name in names
    }


def test_load_splits_one_build_and_restores_the_stage_methods(capsys):
    before = _stage_methods()
    assert main(["load", "--sf", "0.001"]) == 0
    assert _stage_methods() == before
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split("  ")[0].strip(): line for line in lines[3:-2]}
    assert list(rows) == [
        "generate", "validate + keys", "heap", "index", "analyze", "other",
        "total",
    ]
    assert lines[-2].startswith("note: cyclic GC: ")
    assert "collections" in lines[-2]
    assert lines[-1].startswith("note: peak RSS ")
    # Trees are built inside the load, and the stage still sees them.
    assert float(rows["index"].split()[1]) > 0
