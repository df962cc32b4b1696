"""Before/after numbers for the pair-form cones kernels.

    python3 benchmarks/bench_pair_kernel.py PARENT_CHECKOUT > BENCH_name.json

Compares this checkout with PARENT_CHECKOUT (another lnlab checkout, e.g. made
with `git archive`), in three parts:

1. `solver._evaluate` and `solver._analytic_jacobian` wall times at grids
   1e3, 1e4 and 1e5 on the unit ball for three cones: the median of 40
   calls after 5 untimed ones, on the hyperbolic starting profile (where
   every cone is admissible, so the Jacobian has its gradients), in a fresh
   interpreter per checkout with BLAS pinned to one thread.  Both checkouts
   must take `_evaluate(u, spec, r, cone)` and
   `_analytic_jacobian(u, spec, r, cone, state)`.
2. perfbench/run.py --trace 0 on every workload for PAIRS alternating
   (parent, change) pairs on seeds 101, 102, ...; the side that runs first
   alternates.  Each checkout runs its own perfbench/, so both must carry the
   same benchmark.
3. One perfbench/run.py --trace 1 solve-large run on seed 1 per checkout,
   for the per-layer cones and solver metrics.

Progress goes to stderr; the summary is one JSON document on stdout.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 101
EVAL_GRIDS = (1_000, 10_000, 100_000)
EVAL_CONES = ((3, 1, 0.9), (4, 2, 0.95), (6, 3, 0.95))
TRACED = ("cones.cone_margin", "cones.f_and_grad", "cones.sigma_all",
          "cones.tau_deform", "solver.")


def kernel_times(src: str) -> dict:
    """Median milliseconds of _evaluate and of _analytic_jacobian per
    (grid, cone), lnlab from src."""
    sys.path.insert(0, src)
    from lnlab.cones import ConeSpec
    from lnlab.solver import (Ball, ProblemSpec, _analytic_jacobian, _evaluate,
                              initial_profile)
    out = {"_evaluate": {}, "_analytic_jacobian": {}}
    for grid in EVAL_GRIDS:
        for n, k, tau in EVAL_CONES:
            spec = ProblemSpec(cone=ConeSpec(n, k), tau=tau, domain=Ball(1.0),
                               delta=0.05, grid=grid)
            r = spec.radii()
            cone = spec.solve_cone()
            u = initial_profile(spec).u
            state = _evaluate(u, spec, r, cone)[2]
            calls = {"_evaluate": lambda: _evaluate(u, spec, r, cone),
                     "_analytic_jacobian":
                         lambda: _analytic_jacobian(u, spec, r, cone, state)}
            for name, call in calls.items():
                for _ in range(5):
                    call()
                times = []
                for _ in range(40):
                    start = time.perf_counter()
                    call()
                    times.append(time.perf_counter() - start)
                key = f"grid={grid},n={n},k={k},tau={tau}"
                out[name][key] = statistics.median(times) * 1e3
    return out


def run_kernels(checkout: Path) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, __file__, "--kernels", str(checkout / "src")]
    return json.loads(subprocess.run(cmd, env=env, check=True, capture_output=True,
                                     text=True).stdout)


def run_perfbench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(run_seconds()),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    result = json.loads(out[-1])
    provenance = json.loads(out[-2].split(" ", 1)[1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{checkout.name} {workload} seed {seed} trace {trace}: "
          f"correct={result['correct']} run_s={metrics.get('run_s', '-')}",
          file=sys.stderr, flush=True)
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": metrics,
            "host": {k: provenance[k] for k in ("cpu", "nproc", "python", "numpy")}}


def run_seconds() -> float:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(parent: Path, change: Path, workloads=None, pairs=PAIRS,
            first_seed=FIRST_SEED) -> dict:
    """End-to-end metrics of `pairs` alternating (parent, change) untraced
    runs per workload (default: every workload BENCHMARK.json lists).

    pairs must be even and positive: the side that runs first alternates,
    and an odd count lets the parent run first once more than the change.
    """
    if pairs < 2 or pairs % 2:
        raise ValueError(f"pairs must be a positive even number, got {pairs}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for workload in workloads or [w["name"] for w in bench["workloads"]]:
        runs = {"parent": [], "change": []}
        for i in range(pairs):
            sides = [("parent", parent), ("change", change)]
            for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
                runs[side].append(run_perfbench(checkout, workload,
                                                first_seed + i, 0))
        metrics = {}
        for m in bench["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            p = [r["metrics"][name] for r in runs["parent"]]
            c = [r["metrics"][name] for r in runs["change"]]
            wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
            metrics[name] = {"unit": m["unit"], "better": m["better"],
                             "bound": m["bound"], "parent": summarise(p),
                             "change": summarise(c), "change_wins": wins}
        out[workload] = {
            "seeds": list(range(first_seed, first_seed + pairs)),
            "all_correct": all(r["correct"] for side in runs.values() for r in side),
            "end_to_end": metrics}
    return out


def call_rounds(parent: Path, change: Path, run, rounds: int) -> dict:
    """Medians over `rounds` alternating (parent, change) rounds of
    run(checkout), which returns milliseconds per key: {key: {"parent_ms",
    "change_ms", "speedup"}}.  The side that runs first alternates, so
    host drift between rounds falls on both sides alike."""
    runs = {"parent": [], "change": []}
    for i in range(rounds):
        sides = [("parent", parent), ("change", change)]
        for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
            runs[side].append(run(checkout))
    out = {}
    for key in runs["parent"][0]:
        p, c = (statistics.median(r[key] for r in runs[side])
                for side in ("parent", "change"))
        out[key] = {"parent_ms": p, "change_ms": c, "speedup": p / c}
    return out


def claim(runs: dict, workload: str) -> dict:
    """Whether `compare`'s pairs on workload show a `run_s` gain: the change
    wins at least 9 in 10 pairs, and its median lies below the parent's by
    more than the parent's interquartile range."""
    run_s = runs[workload]["end_to_end"]["run_s"]
    p, c = run_s["parent"], run_s["change"]
    spread = p["q3"] - p["q1"]
    gap = p["median"] - c["median"]
    return {"metric": "run_s", "workload": workload, "pairs": len(p["values"]),
            "change_wins": run_s["change_wins"], "median_gap": gap,
            "parent_iqr": spread,
            "met": run_s["change_wins"] >= 0.9 * len(p["values"]) and gap > spread}


def traced(parent: Path, change: Path, workload: str, prefixes: tuple) -> dict:
    """One perfbench/run.py --trace 1 run on seed 1 per checkout: the
    per-layer metrics whose names start with one of prefixes."""
    out = {}
    for side, checkout in (("parent", parent), ("change", change)):
        result = run_perfbench(checkout, workload, 1, 1)
        keep = {k: v for k, v in result["metrics"].items() if k.startswith(prefixes)}
        out[side] = {"correct": result["correct"], "host": result["host"],
                     "metrics": keep}
    return out


def main():
    if sys.argv[1:2] == ["--kernels"]:
        json.dump(kernel_times(sys.argv[2]), sys.stdout)
        return
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    parent, change = Path(sys.argv[1]).resolve(), ROOT
    sides = {"parent": run_kernels(parent), "change": run_kernels(change)}
    kernels = {}
    for name, parent_ms in sides["parent"].items():
        change_ms = sides["change"][name]
        kernels[name] = {"parent": parent_ms, "change": change_ms,
                         "speedup": {key: parent_ms[key] / change_ms[key]
                                     for key in parent_ms}}
    summary = {
        "kernel_ms": kernels,
        "perfbench": compare(parent, change),
        "traced_solve_large": traced(parent, change, "solve-large", TRACED),
    }
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
