"""Acceptance gate: every criterion must pass at its stated tolerance.

Each criterion prints one pass/fail line (run pytest with -s or check the
captured output on failure).
"""

import pytest

from lnlab import acceptance
from lnlab.acceptance import CRITERIA, RUNTIME_LIMITS, run_acceptance
from lnlab.errors import InvalidArgumentError

RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _run_suite():
    for result in run_acceptance(seed=0):
        RESULTS[result.name] = result
        print(result.line())


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion(name):
    result = RESULTS[name]
    print(result.line())
    assert result.passed, result.line()
    assert result.seconds <= RUNTIME_LIMITS[name], (
        f"{name} took {result.seconds:.2f}s, budget {RUNTIME_LIMITS[name]}s")


def test_unknown_only_name_refused_before_any_criterion_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(CRITERIA, "barrier", lambda: ran.append("barrier"))
    with pytest.raises(InvalidArgumentError, match="'bogus'.*choices: .*barrier"):
        run_acceptance(only=["barrier", "bogus"])
    assert ran == []


def test_empty_only_refused_with_the_choices(monkeypatch):
    """only = [] names no criterion: refused, not read as "run them all"."""
    ran = []
    monkeypatch.setitem(CRITERIA, "barrier", lambda: ran.append("barrier"))
    with pytest.raises(InvalidArgumentError,
                       match="^no criterion named; choices: .*barrier"):
        run_acceptance(only=[])
    assert ran == []


def test_ordering_tau_half_compares_distinct_solves(monkeypatch):
    """With comparison_check's arguments swapped, both tau legs fail: u_tau
    rises above u_0 by more than h^2, so the tau half can catch a reversed
    ordering."""
    check = acceptance.comparison_check
    monkeypatch.setattr(acceptance, "comparison_check",
                        lambda lower, upper: check(upper, lower))
    result = acceptance.check_ordering()
    assert not result.passed and result.measured == 2.0
