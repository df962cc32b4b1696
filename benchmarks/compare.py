"""Parent/change numbers for a committed BENCH_*.json record.

    python3 benchmarks/compare.py PARENT_CHECKOUT > BENCH_name.json

Compares this checkout with PARENT_CHECKOUT (another lnlab checkout, e.g. made
with `git archive`); each side runs its own perfbench/, so both must carry the
same benchmark.  For every workload in BENCHMARK.json:

1. perfbench/run.py --trace 0 for PAIRS alternating (parent, change) pairs,
   on seeds from first_seed(): a SHA-256 of this checkout's src/, so each
   change runs on seeds it was not written against.  Every end-to-end metric
   gets a verdict (see `verdict`): each side's median, quartiles and values,
   the change's wins, worse_by against the metric's bound, and gain.  Under
   "minor_faults" each side's median of its runs' minor page faults (see
   `run_perfbench`).
2. One perfbench/run.py --trace 1 run per side on the first seed, with every
   per-layer metric, and under "differing_counts" every `.calls` and `.rows`
   count and `solver.evals` that differs between the sides.

The record also holds each side's line count per src/lnlab/*.py file and
their total, under "src_lines" (see `src_lines`).

Then the stages of one Newton step and the CSV of its report (see
`stage_times`), each timed inside that checkout's own newton_solve
iteration as it calls them, each grid in a fresh interpreter with BLAS
pinned to one thread, over STAGE_ROUNDS alternating rounds; the record
holds the median over rounds.  The probe calls only lnlab's public solver
names and wraps the stages by their names in lnlab.solver, skipping a
name a checkout lacks.  As many more alternating rounds, each in a fresh
interpreter, measure the memory of that step's whole newton_solve call,
of the stages in it and of one tau step (see `newton_peaks`); the record
holds their medians under "stage_peak_mib" (MiB) and "stage_peak_arrays"
(grid arrays).

Each side also runs IMPORT_COMMANDS, each in a fresh interpreter; under
"imports" the record holds, per side and command, the modules it imported
beyond those of `import numpy` and the process's ru_maxrss (see
`command_imports`), so a change that brings back a heavy import shows there.

Last, each side runs the robustness census of benchmarks/census.py on the
same sample of specs and builder calls; under "census" the record holds
each side's census.summary: the count per outcome class, the class's
newton_solve calls and refused calls, and its foreign exceptions and
warnings, for the specs and, under "builders", for the builder calls;
under "sweeps", the same counts and newton_solve calls per class of the
specs' delta sweeps, and their fallbacks (see `run_census`).

Progress goes to stderr; the record is one JSON document on stdout.  Exits
1, after writing the record, if either side's census shows a foreign
exception or warning.
"""

import functools
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import census

ROOT = Path(__file__).resolve().parent.parent
# Even, so each side runs first in half the pairs (or rounds).
PAIRS = 10
STAGE_ROUNDS = 6
STAGE_GRIDS = (1_000, 10_000, 100_000)
STAGE_CONE = (4, 2, 0.95)
# The stages of one Newton iteration that stage_times wraps, each by the
# name through which newton_solve reaches it in lnlab.solver.  "evaluate"
# is one whole operator evaluation (the start's and each line-search
# trial's), around its stencil, eigenpair, cone_margin and f_and_grad.
STAGES = {"stencil": "_radial_stencil", "eigenpair": "_eigenpair",
          "cone_margin": "cone_margin", "f_and_grad": "_f_and_grad_unchecked",
          "evaluate": "_evaluate",
          "jacobian": "_analytic_jacobian", "banded_solve": "solve_banded",
          "line_search": "_line_search", "make_report": "_make_report"}
# The tau step newton_peaks and test_solver.TestOneIterate measure: the
# newton_solve from the converged profile at tau to next_tau, on the annulus
# (inner, outer) at delta; newton_peaks measures it at ONE_STEP_GRIDS.
ONE_STEP_PROBLEM = {"n": 4, "k": 2, "tau": 0.9, "next_tau": 0.95,
                    "annulus": (0.5, 1.0), "delta": 0.05}
ONE_STEP_GRIDS = (20_000, 100_000)
SAMPLES = 7
# A sample repeats a call until it lasts at least this long.
SAMPLE_S = 5e-3
BLAS_PIN = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
# Runs the probe compare.<argv[2]> on the lnlab under argv[3], with the
# further arguments of the JSON list argv[4].
STAGE_PROBE = ("import json, sys; sys.path.insert(0, sys.argv[1]); import compare; "
               "json.dump(getattr(compare, sys.argv[2])(sys.argv[3], *json.loads(sys.argv[4])), "
               "sys.stdout)")

# The commands command_imports runs, by name: the two randomized criteria,
# the only verify code that draws numbers, and a small solve.
IMPORT_COMMANDS = {
    "verify": ["verify", "--only", "cone-properties,ricci-identity"],
    "solve": ["solve", "--grid", "100"],
}
# Runs lnlab.cli.main on the JSON list argv[1] after `import numpy`, its
# output to a scratch directory, and prints the exit code, the modules
# imported beyond numpy's and ru_maxrss (KiB) as one JSON object.
IMPORT_PROBE = """\
import contextlib, io, json, os, resource, sys, tempfile
import numpy
base = set(sys.modules)
from lnlab.cli import main
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]) + ["--out", os.path.join(out, "probe")])
json.dump({"exit": code, "modules": sorted(set(sys.modules) - base),
           "ru_maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss},
          sys.stdout)
"""


def first_seed(src: Path) -> int:
    """The first perfbench seed, from a SHA-256 of the .py files under src."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(f"{path.relative_to(src)}\0".encode())
        digest.update(path.read_bytes())
    return int.from_bytes(digest.digest()[:4], "big") % 100_000 + 1


def src_lines(checkout: Path) -> dict:
    """Lines (newlines, as `wc -l` counts them) of each src/lnlab/*.py file
    of checkout, by file name, and their "total"."""
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in sorted((checkout / "src" / "lnlab").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def command_imports(checkout: Path) -> dict:
    """Per command of IMPORT_COMMANDS, run in a fresh interpreter on the
    lnlab under checkout/src: its exit code, the sorted modules it imported
    beyond those of `import numpy`, and the process's ru_maxrss in KiB."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return {name: json.loads(subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE, json.dumps(argv)], env=env,
                check=True, capture_output=True, text=True).stdout)
            for name, argv in IMPORT_COMMANDS.items()}


def run_perfbench(checkout: Path, workload: str, seed: int, trace: int,
                  seconds: float) -> dict:
    """One perfbench/run.py run of checkout: its correctness, failures,
    metrics and host, and under "minor_faults" the minor page faults of
    the run's processes, perfbench's set-up probes included (the
    RUSAGE_CHILDREN count before and after it)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    result = json.loads(out[-1])
    provenance = json.loads(out[-2].split(" ", 1)[1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{checkout.name} {workload} seed {seed} trace {trace}: "
          f"correct={result['correct']} run_s={metrics.get('run_s', '-')}",
          file=sys.stderr, flush=True)
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": metrics, "minor_faults": faults,
            "host": {k: provenance[k] for k in ("cpu", "nproc", "python", "numpy")}}


def alternate(parent: Path, change: Path, rounds: int, run) -> dict:
    """run(checkout, i) for i < rounds on both sides, the side that runs
    first alternating: {"parent": [...], "change": [...]}.  rounds must be
    even, or one side would run first more often."""
    if rounds <= 0 or rounds % 2:
        raise ValueError(f"rounds must be a positive even number, got {rounds}")
    runs = {"parent": [], "change": []}
    for i in range(rounds):
        sides = [("parent", parent), ("change", change)]
        for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
            runs[side].append(run(checkout, i))
    return runs


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def verdict(metric: dict, parent: list, change: list) -> dict:
    """One end-to-end metric of `metric` (a BENCHMARK.json entry) over
    paired runs.  A pair whose values tie is a win for neither side.
    worse_by is how much worse the change's median is, as a share of the
    parent's median (negative when better); the pair regressed when it
    exceeds the metric's bound.  gain needs at least 9 wins in 10 and a
    median better by more than the parent's interquartile range."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p, c = summarise(parent), summarise(change)
    wins = sum(sign * (cv - pv) < 0 for pv, cv in zip(parent, change))
    loss = sign * (c["median"] - p["median"])
    worse_by = loss / abs(p["median"])
    return {"unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "parent": p, "change": c,
            "change_wins": wins, "worse_by": worse_by,
            "regressed": worse_by > metric["bound"],
            "gain": wins >= 0.9 * len(parent) and -loss > p["q3"] - p["q1"]}


def differing_counts(parent: dict, change: dict) -> dict:
    """The traced counts (every `.calls`, `.rows` and `solver.evals`) whose
    values differ between two runs' metrics."""
    names = sorted(name for name in parent.keys() | change.keys()
                   if name.endswith((".calls", ".rows")) or name == "solver.evals")
    return {name: {"parent": parent.get(name), "change": change.get(name)}
            for name in names if parent.get(name) != change.get(name)}


def compare_workload(parent: Path, change: Path, workload: str, seed: int,
                     bench: dict) -> dict:
    seconds = bench["run_seconds"]
    runs = alternate(parent, change, PAIRS, lambda checkout, i: run_perfbench(
        checkout, workload, seed + i, 0, seconds))
    end_to_end = {m["name"]: verdict(m, *([r["metrics"][m["name"]] for r in runs[side]]
                                          for side in ("parent", "change")))
                  for m in bench["end_to_end"]}
    traced = {side: run_perfbench(checkout, workload, seed, 1, seconds)
              for side, checkout in (("parent", parent), ("change", change))}
    return {"seeds": list(range(seed, seed + PAIRS)),
            "all_correct": all(r["correct"] for side in runs.values() for r in side),
            "end_to_end": end_to_end,
            "minor_faults": {side: statistics.median(r["minor_faults"] for r in side_runs)
                             for side, side_runs in runs.items()},
            "traced": traced,
            "differing_counts": differing_counts(traced["parent"]["metrics"],
                                                 traced["change"]["metrics"])}


def _clock(clock: dict, stage: str, function):
    """function, each call's seconds added to clock[stage], a (seconds,
    calls) pair."""
    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = function(*args, **kwargs)
        seconds, calls = clock.get(stage, (0.0, 0))
        clock[stage] = (seconds + time.perf_counter() - start, calls + 1)
        return result
    return timed


def per_call_ms(call, clock: dict) -> dict:
    """Milliseconds per call of each stage that clock times (see `_clock`)
    while call() runs, the median over SAMPLES samples of `number` calls of
    call().  After one warm-up call, `number` doubles from 1 until a sample
    lasts at least SAMPLE_S."""
    call()
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            call()
        if time.perf_counter() - start >= SAMPLE_S:
            break
        number *= 2
    samples = []
    for _ in range(SAMPLES):
        clock.clear()
        for _ in range(number):
            call()
        samples.append({stage: seconds / calls for stage, (seconds, calls) in clock.items()})
    return {stage: statistics.median(sample[stage] for sample in samples) * 1e3
            for stage in samples[0]}


def _stage_problem(solver, ConeSpec, grid):
    """The spec and the tau = 0 start the stage probes solve at grid: the
    unit ball, STAGE_CONE, delta 0.05."""
    n, k, tau = STAGE_CONE
    spec = solver.ProblemSpec(cone=ConeSpec(n, k), tau=tau,
                              domain=solver.Ball(1.0), delta=0.05, grid=grid)
    return spec, solver.initial_profile(spec)


def stage_times(src: str, grids=None) -> dict:
    """Milliseconds per call of each stage, per grid of grids (STAGE_GRIDS
    by default), lnlab from src, inside one-iteration newton_solve calls on
    _stage_problem (MAX_NEWTON_ITERATIONS set to 1 for the probe).  The
    stages of STAGES are wrapped (see census.wrapping) and timed per call as
    that iteration calls them; a stage it does not reach, as one whose
    name the checkout lacks, gets no key.  Unwrapped, the whole call and
    then `SolveReport.to_csv` of that iteration's report are timed as
    "newton_solve_1_iteration" and "to_csv".  The whole call goes first,
    so that it is not timed in the heap state the CSV leaves (a 9 MB
    string at grid 1e5).
    `main` runs each grid in its own interpreter (see `run_stage_times`)."""
    sys.path.insert(0, src)
    from lnlab import solver
    from lnlab.cones import ConeSpec
    out, clock = {}, {}
    with census.wrapping(solver, {"MAX_NEWTON_ITERATIONS": lambda limit: 1}):
        for grid in STAGE_GRIDS if grids is None else grids:
            spec, init = _stage_problem(solver, ConeSpec, grid)
            one_iteration = lambda: solver.newton_solve(init, spec)  # noqa: E731
            with census.wrapping(solver, {name: functools.partial(_clock, clock, stage)
                                          for stage, name in STAGES.items()}):
                times = per_call_ms(one_iteration, clock)
            times.update(per_call_ms(
                _clock(clock, "newton_solve_1_iteration", one_iteration), clock))
            times.update(per_call_ms(_clock(clock, "to_csv", one_iteration().to_csv), clock))
            out.update((f"{stage},grid={grid}", ms) for stage, ms in times.items())
    return out


def _traced_peak(call) -> float:
    """Bytes that tracemalloc traces, above its start, at the peak of
    call()."""
    import tracemalloc
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _stage_peaks(solver, call) -> dict:
    """Bytes above call()'s start at the peak of each stage of its one
    newton_solve iteration: the line-search trials' `_evaluate` (every call
    after the first, the start's), `_analytic_jacobian` and `solve_banded`,
    each wrapped (see census.wrapping) with tracemalloc's peak reset around
    it.  A stage the iteration does not reach gets no key."""
    import tracemalloc
    stages = {"trial_evaluate": "_evaluate", "jacobian": "_analytic_jacobian",
              "banded_solve": "solve_banded"}
    peaks, evaluations = {}, []

    def traced(stage, original):
        def call_stage(*args):
            tracemalloc.reset_peak()
            result = original(*args)
            if stage != "trial_evaluate" or evaluations:
                peak = tracemalloc.get_traced_memory()[1] - start
                peaks[stage] = max(peaks.get(stage, 0), peak)
            if stage == "trial_evaluate":
                evaluations.append(None)
            return result
        return call_stage

    with census.wrapping(solver, {name: functools.partial(traced, stage)
                                  for stage, name in stages.items()}):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
        finally:
            tracemalloc.stop()
    return peaks


def newton_peaks(src: str) -> dict:
    """Memory that tracemalloc traces, above the start of each measured
    call, lnlab from src.  Per grid of STAGE_GRIDS, the peak of one call of
    the newton_solve_1_iteration stage in MiB, and in grid arrays (8 bytes
    per node) the peak of each of its stages (see `_stage_peaks`) under
    "<stage>,grid=G,arrays".  Per grid of ONE_STEP_GRIDS, in grid arrays,
    the peak of ONE_STEP_PROBLEM's tau step under "tau_step,grid=G,arrays".
    Each call allocates the same arrays on every repeat, so one call
    measures it."""
    sys.path.insert(0, src)
    from dataclasses import replace
    from lnlab import solver
    from lnlab.cones import ConeSpec
    out = {}
    with census.wrapping(solver, {"MAX_NEWTON_ITERATIONS": lambda limit: 1}):
        for grid in STAGE_GRIDS:
            spec, init = _stage_problem(solver, ConeSpec, grid)
            one_iteration = lambda: solver.newton_solve(init, spec)  # noqa: E731
            out[f"newton_solve_1_iteration,grid={grid}"] = _traced_peak(one_iteration) / 2**20
            for stage, peak in _stage_peaks(solver, one_iteration).items():
                out[f"{stage},grid={grid},arrays"] = peak / (8 * (grid + 1))
    one = ONE_STEP_PROBLEM
    for grid in ONE_STEP_GRIDS:
        spec = solver.ProblemSpec(cone=ConeSpec(one["n"], one["k"]), tau=one["tau"],
                                  domain=solver.Annulus(*one["annulus"]),
                                  delta=one["delta"], grid=grid)
        start = solver.continuation_tau(spec).profile
        step = replace(spec, tau=one["next_tau"])
        peak = _traced_peak(lambda: solver.newton_solve(start, step))
        out[f"tau_step,grid={grid},arrays"] = peak / (8 * (grid + 1))
    return out


def run_probe(probe: str, *args):
    """A run for `alternate`: probe ("stage_times" or "newton_peaks") on
    the checkout's lnlab with the further arguments args, in a fresh
    interpreter with BLAS pinned."""
    def run(checkout: Path, _round: int) -> dict:
        cmd = [sys.executable, "-c", STAGE_PROBE, str(Path(__file__).resolve().parent),
               probe, str(checkout / "src"), json.dumps(args)]
        result = json.loads(subprocess.run(cmd, env=dict(os.environ, **BLAS_PIN),
                                           check=True, capture_output=True,
                                           text=True).stdout)
        print(f"{checkout.name} {probe}{list(args) if args else ''} done",
              file=sys.stderr, flush=True)
        return result
    return run


def run_stage_times(checkout: Path, round_: int) -> dict:
    """A run for `alternate`: stage_times at each grid of STAGE_GRIDS, each
    grid in a fresh interpreter (see `run_probe`), so that no grid's times
    follow the heap state that another grid left.  The 3 interpreters of a
    round take about 4 s per side on a 2-core host."""
    out = {}
    for grid in STAGE_GRIDS:
        out.update(run_probe("stage_times", [grid])(checkout, round_))
    return out


def _medians(runs: dict) -> dict:
    """(parent, change) medians over rounds of each key that both sides'
    runs hold."""
    return {key: tuple(statistics.median(r[key] for r in runs[side])
                       for side in ("parent", "change"))
            for key in runs["parent"][0] if key in runs["change"][0]}


def stage_medians(runs: dict) -> dict:
    return {key: {"parent_ms": p, "change_ms": c, "speedup": p / c}
            for key, (p, c) in _medians(runs).items()}


def peak_medians(runs: dict) -> dict:
    """Per key, the sides' medians and the saving, in MiB, or in grid
    arrays for a key that ends in ",arrays"."""
    out = {}
    for key, (p, c) in _medians(runs).items():
        unit = "arrays" if key.endswith(",arrays") else "mib"
        out[key] = {f"parent_{unit}": p, f"change_{unit}": c, f"saved_{unit}": p - c}
    return out


def run_census(checkout: Path) -> dict:
    """census.summary of checkout on census.sample(), with its delta sweeps
    under "sweeps", and census.summary of census.builder_sample() under
    "builders", from one fresh interpreter."""
    specs, builders = census.sample(), census.builder_sample()
    print(f"{checkout.name} census", file=sys.stderr, flush=True)
    results = census.census(checkout, specs + builders)
    return {**census.summary(specs, results[:len(specs)]),
            "builders": census.summary(builders, results[len(specs):])}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    parent, change = Path(argv[0]).resolve(), ROOT
    missing = [part for part in ("src/lnlab", "perfbench/run.py")
               if not (parent / part).exists()]
    if missing:
        print(f"{parent} is not an lnlab checkout with a benchmark: "
              f"no {' or '.join(missing)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = first_seed(change / "src")
    stages = stage_medians(alternate(parent, change, STAGE_ROUNDS, run_stage_times))
    peaks = peak_medians(alternate(parent, change, STAGE_ROUNDS,
                                   run_probe("newton_peaks")))
    workloads = {w["name"]: compare_workload(parent, change, w["name"], seed, bench)
                 for w in bench["workloads"]}
    flagged = {flag: [f"{name}/{metric}" for name, w in workloads.items()
                      for metric, v in w["end_to_end"].items() if v[flag]]
               for flag in ("regressed", "gain")}
    sides = (("parent", parent), ("change", change))
    lines = {side: src_lines(checkout) for side, checkout in sides}
    imports = {side: command_imports(checkout) for side, checkout in sides}
    censuses = {side: run_census(checkout) for side, checkout in sides}
    json.dump({**flagged, "pairs": PAIRS, "src_lines": lines, "imports": imports,
               "workloads": workloads,
               "stage_ms": stages,
               "stage_peak_mib": {k: v for k, v in peaks.items() if "parent_mib" in v},
               "stage_peak_arrays": {k: v for k, v in peaks.items() if "parent_arrays" in v},
               "census": censuses},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 1 if any(side["foreign"] or side["builders"]["foreign"]
                    for side in censuses.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
