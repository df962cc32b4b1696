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


@pytest.mark.parametrize("pairs", [5, 1, 0])
def test_compare_refuses_an_uneven_pair_count_before_any_run(monkeypatch, tmp_path,
                                                             pairs):
    """compare alternates which side runs first, so only an even count gives
    both sides the first slot equally often."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    bench_pair_kernel = importlib.import_module("bench_pair_kernel")

    def no_run(*args):
        raise AssertionError("compare started a perfbench run")

    monkeypatch.setattr(bench_pair_kernel, "run_perfbench", no_run)
    with pytest.raises(ValueError, match=f"positive even number, got {pairs}"):
        bench_pair_kernel.compare(tmp_path, tmp_path, ["cli-solve"], pairs)


@pytest.mark.parametrize("script", sorted(p.stem for p in BENCHMARKS.glob("bench_*.py")))
def test_pair_counts_are_even(monkeypatch, script):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    module = importlib.import_module(script)
    counts = {name: value for name, value in vars(module).items()
              if name.endswith("PAIRS")}
    assert counts and all(value % 2 == 0 for value in counts.values()), counts
