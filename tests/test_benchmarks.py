"""The scripts in benchmarks/ are run by hand against another checkout, so
nothing else exercises them: each must at least import cleanly."""

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize("script", sorted(p.stem for p in BENCHMARKS.glob("*.py")))
def test_imports_without_running(monkeypatch, script):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    module = importlib.import_module(script)
    assert callable(module.main)


def test_diff_outputs_fails_on_a_nonzero_exit(monkeypatch, tmp_path, capsys):
    """A command that exits nonzero the same way in both checkouts leaves
    identical trees; diff_outputs still exits 1 and names it."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    diff_outputs = importlib.import_module("diff_outputs")
    codes = {"parent": [("verify", 0), ("large/4_2_0.95_ball", 1)],
             "change": [("verify", 0), ("large/4_2_0.95_ball", 1)]}
    assert diff_outputs.nonzero_exits(codes) == [
        "parent: large/4_2_0.95_ball exited 1", "change: large/4_2_0.95_ball exited 1"]
    assert diff_outputs.nonzero_exits(
        {side: [(name, 0) for name, _ in side_codes]
         for side, side_codes in codes.items()}) == []

    parent = tmp_path / "parent"
    (parent / "src" / "lnlab").mkdir(parents=True)
    for exit_code, want in ((1, 1), (0, 0)):
        monkeypatch.setattr(diff_outputs, "run_checkout",
                            lambda checkout, out: [("verify", 0), ("cone_4_2_1", exit_code)])
        assert diff_outputs.main([str(parent)]) == want
        stdout = capsys.readouterr().out
        assert ("cone_4_2_1 exited 1" in stdout) == bool(exit_code)
        assert f"0 files, 0 differ, {2 * exit_code} nonzero exits" in stdout
