"""Acceptance gate: every criterion must pass at its stated tolerance.

Each criterion prints one pass/fail line (run pytest with -s or check the
captured output on failure).
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lnlab import acceptance
from lnlab.acceptance import CRITERIA, RUNTIME_LIMITS, _Draws, run_acceptance
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


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
def test_seed_that_is_not_a_non_negative_int_is_refused(monkeypatch, seed):
    """The seed keys the randomized criteria's draws; anything but a
    non-negative integer is refused by name before any criterion runs."""
    ran = []
    monkeypatch.setitem(CRITERIA, "cone-properties", lambda seed: ran.append(seed))
    with pytest.raises(InvalidArgumentError,
                       match=f"^seed must be a non-negative integer, got {seed!r}$"):
        run_acceptance(only=["cone-properties"], seed=seed)
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


def test_verify_process_never_imports_numpy_random():
    """A fresh `lnlab verify --seed 0` runs every criterion without loading
    numpy.random, whose import brings in secrets, hashlib and OpenSSL."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import contextlib, io, sys; from lnlab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['verify', '--seed', '0'])\n"
            "print(code, sorted(m for m in ('numpy.random', 'secrets', 'hashlib')"
            " if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0", "[]"]


def draws(seed):
    """Every kind of draw the randomized criteria make, from one _Draws."""
    rng = _Draws(seed)
    return (rng.uniform(size=(40, 3)), rng.uniform(0.1, 10.0, size=40),
            rng.exponential(0.5, size=(40, 3)), rng.normal(size=(40, 3)),
            rng.normal(size=7))


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**64, 2**100, np.int64(7)])
def test_draws_repeat_per_seed_and_stay_in_range(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first, again = draws(seed), draws(seed)
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()
    unit, spread, expo, normal, odd = first
    assert unit.shape == (40, 3) and spread.shape == (40,) and odd.shape == (7,)
    assert ((unit >= 0.0) & (unit < 1.0)).all()
    assert ((spread >= 0.1) & (spread < 10.0)).all()
    assert (np.isfinite(expo) & (expo > 0.0)).all()
    assert np.isfinite(normal).all() and np.isfinite(odd).all()


@pytest.mark.parametrize("seed, first", [
    (0, (0xA706DD2F4D197E6F, 0xB382A305F4414F5E, 0x631A9154FBABF717)),
    (1, (0x5E41AB087439611E, 0xF18D6CE93D6CF1EE, 0x0B95F66D327E8D78)),
    (2**64 + 5, (0xA51A08E999E06950, 0x0ECA6960C89B7750, 0x81B323BE9F2001B3)),
])
def test_first_draws_are_pinned(seed, first):
    """The first three 64-bit draws of seeds of one and of two 64-bit
    words.  One SplitMix64 finaliser mixes the key and the draws; these
    streams, and with them verify's report, keep their bits."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [int(z) for z in _Draws(seed)._bits(3)] == list(first)


def test_different_seeds_give_different_draws():
    seeds = [0, 1, 2, 2**31 - 1, 2**64, 2**64 + 1, 2**100]
    streams = [draws(seed)[0].tobytes() for seed in seeds]
    assert len(set(streams)) == len(seeds)


def test_a_stream_continues_across_calls():
    """Successive calls take successive counters: no draw repeats."""
    rng = _Draws(0)
    a, b = rng.uniform(size=100), rng.uniform(size=100)
    assert len(set(np.concatenate((a, b)))) == 200


@pytest.mark.parametrize("kind, mean, var, fourth", [
    ("uniform", 0.5, 1 / 12, 1 / 80),
    ("exponential", 0.5, 0.25, 9 * 0.5**4),
    ("normal", 0.0, 1.0, 3.0),
])
def test_draw_moments_within_five_sigma(kind, mean, var, fourth):
    """Over 10^5 draws the sample mean and variance sit within 5 sigma of
    the exact values; sigma of the variance from the fourth central moment."""
    count = 100_000
    rng = _Draws(0)
    x = {"uniform": lambda: rng.uniform(size=count),
         "exponential": lambda: rng.exponential(0.5, size=count),
         "normal": lambda: rng.normal(size=count)}[kind]()
    assert abs(x.mean() - mean) <= 5 * np.sqrt(var / count)
    assert abs(x.var() - var) <= 5 * np.sqrt((fourth - var**2) / count)
