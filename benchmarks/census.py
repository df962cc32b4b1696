"""A robustness census: of a fixed sample of accepted problem specs, how many
converge, and how the others fail; and the same for the public builders.

    python3 benchmarks/census.py [CHECKOUT]

CHECKOUT is an lnlab checkout (this one by default).  `sample` draws SPECS
specs from SEED over the box: n = 3..12, any k <= n, tau = 0, U[0, 1) or
1 - 10^-U(1, 4) (a third each), a ball or an annulus (half each), outer
radius b = 10^U(-3, 3), inner radius a with a/b = 10^U(-3, log10 0.99),
delta/b = 10^U(-6, 1) and grid 8..400, then appends a copy at delta = 0
of every ZERO_DELTA_EVERY-th drawn spec.  `builder_sample` draws
BUILDER_SPECS calls of the public builders from SEED, a third each:
hyperbolic_ball_profile, barrier_profile, and the certificate chain
linear_auxiliary -> find_N -> verify_admissible (see `builder_sample` for
their boxes).  One fresh interpreter, with CHECKOUT's src/ first on
sys.path, runs continuation_tau on each spec and each builder call, with
warnings as errors (see `run_specs`).  Each spec then runs
continuation_delta, the sweep `lnlab solve` runs, the same way: its class
is "complete" or the leg it stopped at with its cause, and its fallbacks
are its continuation_tau calls after the first leg's.

A run, a spec's tau continuation or its delta sweep, counts its
newton_solve calls and the refused ones among them, and is stopped after
SPEC_NEWTON_CALLS calls: a tau step or a warm delta leg is one
newton_solve call, from its predicted start, and a refused tau step is
halved.  So every class and count depends only on the code, not on the
machine's load.

Printed, for the specs and for the builders: the count per outcome class
(converged or built, or the cause the error names, see `outcome`) with the
class's newton_solve calls and refused calls, the same per sweep class
with the fallbacks, the SLOWEST slowest, and every foreign exception or
warning with its spec (see `summary`).  Exits 1 if there was one.
"""

import contextlib
import json
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
# About 20 s on one core.
SPECS = 120
# A run whose tau steps keep halving could take minutes, so each run is
# stopped after this many newton_solve calls.  On this sample the largest
# run, a delta sweep, makes 4,495 calls (3.5 s on one core of a Xeon), and
# the largest tau continuation 2,928 (1.6 s); at about 0.65 ms a call,
# 10,000 calls take about 6.5 s.
SPEC_NEWTON_CALLS = 10_000
# Every tenth drawn spec is solved again at delta = 0, the Loewner-Nirenberg
# datum itself: 12 more specs.
ZERO_DELTA_EVERY = 10
# A few seconds on one core.
BUILDER_SPECS = 90
SLOWEST = 5
# The causes refusals name, in the words of this and earlier checkouts.  The
# first one a message holds is its class; a start problem's Newton stop is
# classed as the start problem's.
CAUSES = (
    "the tau = 0 start problem did not converge",
    "rounds away against delta",
    "not finite and positive",
    "out of float range",
    "the step left the cone",
    "line search found no admissible descent step",
    "iteration limit reached",
    "no valid certificate",
)
# Runs run_specs in the census module at argv[1] on the lnlab under argv[2].
PROBE = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import census; "
         "json.dump(census.run_specs(json.load(sys.stdin)), sys.stdout)")


class OverBudget(Exception):
    """Raised at a run's newton_solve call after its SPEC_NEWTON_CALLS-th."""


def sample(count: int = SPECS) -> list:
    """count spec dicts drawn from SEED over the box of the module doc,
    then a copy at delta = 0 of every ZERO_DELTA_EVERY-th of them; the
    drawn specs come first, so a slice of the first ones is the same at
    any count."""
    rng = np.random.default_rng(SEED)
    specs = []
    for _ in range(count):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, n + 1))
        kind = int(rng.integers(3))
        tau = (0.0, float(rng.uniform(0.0, 1.0)),
               1.0 - 10.0**-float(rng.uniform(1.0, 4.0)))[kind]
        outer = 10.0**float(rng.uniform(-3.0, 3.0))
        inner = outer * 10.0**float(rng.uniform(-3.0, np.log10(0.99)))
        ball = bool(rng.integers(2))
        specs.append({"n": n, "k": k, "tau": tau, "domain": "ball" if ball else "annulus",
                      "inner": None if ball else inner, "outer": outer,
                      "delta": outer * 10.0**float(rng.uniform(-6.0, 1.0)),
                      "grid": int(rng.integers(8, 401))})
    return specs + [dict(spec, delta=0.0) for spec in specs[::ZERO_DELTA_EVERY]]


def builder_sample(count: int = BUILDER_SPECS) -> list:
    """count builder calls drawn from SEED, cycling over the builders, each
    a dict with the builder's name under "builder" and its arguments.

    hyperbolic_ball_profile: grid = 10^U(log10 3, 6), whose radii take at
    most 8 MB.  barrier_profile: R = 10^U(-320, TOP), m = 10^U(-20, TOP),
    delta = m 10^U(-20, -0.01) and grid 3..2000, TOP = log10 of the largest
    float.  The certificate chain: coords = linspace(0, L, size) with L =
    10^U(-3, TOP) and size 1..500 into linear_auxiliary, whose data take C0
    = 10^U(0, TOP) and C2 and C3, each 0 or 10^U(-320, TOP), before find_N;
    the certificate goes to verify_admissible with ConeSpec(n, k, tau), n =
    3..12, any k <= n, tau = U[0, 1].
    """
    rng = np.random.default_rng([SEED, 1])
    top = float(np.log10(np.finfo(float).max))

    def power(low, high=top):
        return 10.0**float(rng.uniform(low, high))

    calls = []
    for i in range(count):
        kind = ("hyperbolic_ball_profile", "barrier_profile", "certificate")[i % 3]
        if kind == "hyperbolic_ball_profile":
            call = {"grid": int(power(np.log10(3.0), 6.0))}
        elif kind == "barrier_profile":
            m = power(-20.0)
            call = {"R": power(-320.0), "m": m, "delta": m * power(-20.0, -0.01),
                    "grid": int(rng.integers(3, 2001))}
        else:
            n = int(rng.integers(3, 13))
            call = {"length": power(-3.0), "size": int(rng.integers(1, 501)),
                    "C0": power(0.0),
                    **{name: float(rng.integers(2)) * power(-320.0) for name in ("C2", "C3")},
                    "n": n, "k": int(rng.integers(1, n + 1)),
                    "tau": float(rng.uniform(0.0, 1.0))}
        calls.append({"builder": kind, **call})
    return calls


def _problem(spec: dict):
    """The ProblemSpec of one spec of sample()."""
    from lnlab import Annulus, Ball, ConeSpec, ProblemSpec
    domain = (Ball(spec["outer"]) if spec["domain"] == "ball"
              else Annulus(spec["inner"], spec["outer"]))
    return ProblemSpec(ConeSpec(spec["n"], spec["k"]), spec["tau"], domain, spec["delta"],
                       spec["grid"])


def _solve(spec: dict) -> str:
    """Run continuation_tau on one spec of sample(); its outcome when it
    returns."""
    from lnlab import continuation_tau
    report = continuation_tau(_problem(spec))
    return "converged" if report.converged else "not converged"


def _sweep(spec: dict) -> str:
    """Run continuation_delta on one spec of sample(), which does not read
    its delta; its class when it returns: "complete", or the leg it
    stopped at and the first of CAUSES that the error of that leg's fresh
    tau continuation holds (else that error)."""
    from lnlab import continuation_delta
    sweep = continuation_delta(_problem(spec))
    if sweep.ok:
        return "complete"
    fresh = sweep.failure.rpartition("fresh tau continuation failed: ")[2]
    cause = next((cause for cause in CAUSES if cause in fresh), fresh)
    return f"stopped at leg {len(sweep.reports)}: {cause}"


def _build(call: dict) -> str:
    """Run one builder call of builder_sample; its outcome when it returns."""
    import lnlab
    kind = call["builder"]
    if kind == "hyperbolic_ball_profile":
        lnlab.hyperbolic_ball_profile(call["grid"])
        return "built"
    if kind == "barrier_profile":
        lnlab.barrier_profile(call["R"], call["delta"], call["m"], call["grid"])
        return "built"
    data = lnlab.linear_auxiliary(np.linspace(0.0, call["length"], call["size"]))
    data = replace(data, C0=call["C0"], C2=call["C2"], C3=call["C3"])
    cert = lnlab.find_N(data)
    ok, _ = lnlab.verify_admissible(cert, lnlab.ConeSpec(call["n"], call["k"], call["tau"]))
    return "certified admissible" if ok else "certified, not admissible"


def outcome(err: BaseException) -> str | None:
    """The class of a refusal: its type and the first of CAUSES its message
    holds, else its message; None for a foreign exception or a warning."""
    from lnlab.errors import LnlabError
    if isinstance(err, OverBudget):
        return f"stopped after {SPEC_NEWTON_CALLS} newton_solve calls"
    if not isinstance(err, LnlabError):
        return None
    message = str(err)
    return f"{type(err).__name__}: " + next(
        (cause for cause in CAUSES if cause in message), message)


@contextlib.contextmanager
def wrapping(module, wraps: dict):
    """Each attribute of module that wraps names, a function or a constant,
    replaced by wraps[name](its value), so that module's code reads the
    replacement, and restored after, also when the body raises.  A name
    module lacks is skipped."""
    originals = {name: getattr(module, name) for name in wraps if hasattr(module, name)}
    try:
        for name, original in originals.items():
            setattr(module, name, wraps[name](original))
        yield
    finally:
        for name, original in originals.items():
            setattr(module, name, original)


def _counting(counts: list, taus: list) -> dict:
    """The wraps (see `wrapping`) of lnlab.solver's module globals that
    continuation_tau and continuation_delta call.  Each newton_solve call
    adds 1 to counts[0] and each refused one (an lnlab error, or a report
    that did not converge) 1 to counts[1]; a call once counts[0] is
    SPEC_NEWTON_CALLS raises OverBudget instead.  A predicted start that
    RadialProfile refuses makes no call.  Each continuation_tau call, the
    first leg's of a delta sweep or a fallback's, adds 1 to taus[0]."""
    from lnlab.errors import LnlabError

    def count_newton(solve):
        def counted(*args, **kwargs):
            if counts[0] >= SPEC_NEWTON_CALLS:
                raise OverBudget
            counts[0] += 1
            try:
                report = solve(*args, **kwargs)
            except LnlabError:
                counts[1] += 1
                raise
            counts[1] += not report.converged
            return report
        return counted

    def count_tau(continuation_tau):
        def counted(*args, **kwargs):
            taus[0] += 1
            return continuation_tau(*args, **kwargs)
        return counted

    return {"newton_solve": count_newton, "continuation_tau": count_tau}


def _run_one(run, spec: dict, counts: list) -> dict:
    """{"outcome", "seconds", "newton_calls", "newton_refused"} of run(spec),
    with warnings as errors and counts reset first (see `_counting`): its
    outcome, or the class of its error (see `outcome`), and its
    newton_solve calls and refused calls; a foreign exception or a warning
    has outcome "foreign" and its "error"."""
    counts[:] = [0, 0]
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = {"outcome": run(spec)}
        except Exception as err:            # noqa: BLE001 - the census counts them
            cls = outcome(err)
            result = ({"outcome": cls} if cls else
                      {"outcome": "foreign", "error": f"{type(err).__name__}: {err}"})
    result["seconds"] = time.perf_counter() - start
    result["newton_calls"], result["newton_refused"] = counts
    return result


def run_specs(specs: list) -> list:
    """Per spec, {"outcome", "seconds", "newton_calls", "newton_refused"}
    from continuation_tau on the lnlab first on sys.path, or from the
    builder call of a spec with a "builder" (see `_build`), by `_run_one`.
    A problem spec then runs its delta sweep by `_run_one` too, with its
    own count, which adds "sweep" (its class, see `_sweep`),
    "sweep_seconds", "sweep_newton_calls", "sweep_newton_refused",
    "fallbacks" (its continuation_tau calls after the first) and, for a
    foreign one, "sweep_error"."""
    from lnlab import solver
    results = []
    counts, taus = [0, 0], [0]
    with wrapping(solver, _counting(counts, taus)):
        for spec in specs:
            result = _run_one(_build if "builder" in spec else _solve, spec, counts)
            if "builder" not in spec:
                taus[0] = 0
                sweep = _run_one(_sweep, spec, counts)
                result.update({f"sweep_{key}": value for key, value in sweep.items()
                               if key != "outcome"},
                              sweep=sweep["outcome"], fallbacks=max(taus[0] - 1, 0))
            results.append(result)
    return results


def newton_totals(results: list, key: str = "outcome", prefix: str = "") -> dict:
    """Per class of results (under key), the newton_solve calls and refused
    calls of its results (under prefix + "newton_calls" and prefix +
    "newton_refused"): {class: {"calls": ..., "refused": ...}}."""
    totals = {}
    for result in results:
        total = totals.setdefault(result[key], {"calls": 0, "refused": 0})
        total["calls"] += result[prefix + "newton_calls"]
        total["refused"] += result[prefix + "newton_refused"]
    return dict(sorted(totals.items()))


def sweep_totals(results: list) -> dict:
    """The delta sweeps of problem-spec results: the count per class (see
    `_sweep`), each class's newton_solve calls and refused calls under
    "newton" (see `newton_totals`), and the fallbacks of them all."""
    return {"counts": dict(sorted(Counter(r["sweep"] for r in results).items())),
            "newton": newton_totals(results, "sweep", "sweep_"),
            "fallbacks": sum(r["fallbacks"] for r in results)}


def foreign_errors(results: list, specs: list) -> list:
    """(error, spec) of each foreign exception or warning, in a spec's
    solve, build or delta sweep."""
    return [(error, spec) for result, spec in zip(results, specs)
            for error in (result.get("error"), result.get("sweep_error")) if error]


def summary(specs: list, results: list) -> dict:
    """The census of results (run_specs on specs) without its seconds: the
    count per outcome class, its newton_solve calls and refused calls under
    "newton" (see `newton_totals`), each foreign exception or warning with
    its spec under "foreign" (see `foreign_errors`) and, if results ran
    delta sweeps, those sweeps under "sweeps" (see `sweep_totals`)."""
    out = {"counts": dict(sorted(Counter(r["outcome"] for r in results).items())),
           "newton": newton_totals(results),
           "foreign": [{"error": error, "spec": spec}
                       for error, spec in foreign_errors(results, specs)]}
    swept = [result for result in results if "sweep" in result]
    if swept:
        out["sweeps"] = sweep_totals(swept)
    return out


def census(checkout: Path, specs: list) -> list:
    """run_specs on checkout's lnlab, in a fresh interpreter."""
    cmd = [sys.executable, "-c", PROBE, str(Path(__file__).resolve().parent),
           str(checkout / "src")]
    return json.loads(subprocess.run(cmd, input=json.dumps(specs), check=True,
                                     capture_output=True, text=True).stdout)


def _class_lines(counts: dict, newton: dict) -> list:
    """A line per class, the most frequent first: its count and its
    newton_solve calls and refused calls."""
    return [f"  {count:4d}  {name}  ({newton[name]['calls']} newton_solve calls, "
            f"{newton[name]['refused']} refused)"
            for name, count in sorted(counts.items(), key=lambda item: -item[1])]


def report(specs: list, results: list) -> tuple:
    """The printed census, as lines: its summary (see `summary`) with the
    seconds of the specs and of their sweeps and the SLOWEST slowest; and
    whether it found anything foreign."""
    census = summary(specs, results)
    lines = [f"{len(specs)} specs in {sum(r['seconds'] for r in results):.1f} s"]
    lines += _class_lines(census["counts"], census["newton"])
    if "sweeps" in census:
        sweeps = census["sweeps"]
        lines.append(f"{sum(sweeps['counts'].values())} delta sweeps in "
                     f"{sum(r.get('sweep_seconds', 0.0) for r in results):.1f} s, "
                     f"{sweeps['fallbacks']} fallbacks:")
        lines += _class_lines(sweeps["counts"], sweeps["newton"])
    lines.append("slowest:")
    ranked = sorted(zip(results, specs), key=lambda pair: -pair[0]["seconds"])
    lines += [f"  {result['seconds']:7.2f} s  {result['outcome']}  {json.dumps(spec)}"
              for result, spec in ranked[:SLOWEST]]
    lines.append(f"foreign exceptions and warnings: {len(census['foreign'])}")
    lines += [f"  {f['error']}  {json.dumps(f['spec'])}" for f in census["foreign"]]
    return lines, bool(census["foreign"])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    checkout = Path(argv[0]).resolve() if argv else ROOT
    if not (checkout / "src" / "lnlab").is_dir():
        print(f"{checkout} is not an lnlab checkout: no src/lnlab", file=sys.stderr)
        return 2
    specs, builders = sample(), builder_sample()
    results = census(checkout, specs + builders)
    lines, foreign = report(specs, results[:len(specs)])
    builder_lines, builder_foreign = report(builders, results[len(specs):])
    print(f"census of {checkout}: " + "\n".join(lines))
    print("builders: " + "\n".join(builder_lines))
    return 1 if foreign or builder_foreign else 0


if __name__ == "__main__":
    sys.exit(main())
