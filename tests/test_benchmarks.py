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
