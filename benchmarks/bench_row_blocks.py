"""Before/after numbers for the row-blocked cone pass and the in-place
Newton-step stages.

    python3 benchmarks/bench_row_blocks.py PARENT_CHECKOUT > BENCH_row_blocks.json

Compares this checkout with PARENT_CHECKOUT (another lnlab checkout, e.g. made
with `git archive`), in four parts:

1. perfbench/run.py --trace 0 for alternating (parent, change) pairs, run by
   `bench_pair_kernel.compare`: SOLVE_LARGE_PAIRS pairs on solve-large, the
   workload whose 1e5-row arrays take the blocked path, and OTHER_PAIRS
   pairs on cli-solve and verify, whose arrays fit in one block.  The
   solve-large `run_s` claim is summarised under "claim".
2. PASS_PAIRS alternating pairs of one solve-large pass (every solve-large
   configuration once, after one untimed grid-1000 solve) in a fresh
   interpreter per run, BLAS pinned to one thread: wall seconds, and the
   minor page faults and system seconds that `resource.getrusage` reports
   for that process over the pass, plus a SHA-256 of every profile,
   residual, margin and `to_dict()`, which must agree across checkouts.
3. The block-size sweep: the same pass in this checkout with
   `lnlab.cones._BLOCK_ROWS` set to each of BLOCK_SWEEP in turn (the last
   one puts 1e5 rows in one block, so only the in-place stages remain),
   SWEEP_ROUNDS interleaved rounds, medians per size.
4. One perfbench/run.py --trace 1 solve-large run on seed 1 per checkout,
   for the `cones.*` and `solver.*` spans, and under "traced_counts" the
   counts that must repeat exactly and the ratio of the `sigma_all` and
   `tau_deform` calls, which grow by the number of blocks per call.

Progress goes to stderr; the summary is one JSON document on stdout.
"""

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_pair_kernel import claim, compare, summarise, traced

ROOT = Path(__file__).resolve().parent.parent
SOLVE_LARGE_PAIRS = 10
OTHER_PAIRS = 6
PASS_PAIRS = 6
FIRST_SEED = 1401
BLOCK_SWEEP = (2048, 4096, 8192, 16384, 32768, 131072)
SWEEP_ROUNDS = 3
TRACED = ("cones.", "solver.")
# Traced counts the change must leave as they are: every call into the
# solver's layers and every row count.
REPEATED = ("solver.evals", "cones.cone_margin.calls", "cones.f_and_grad.calls",
            "solver.newton_solve.calls", "solver.newton_solve.iters")
BLOCKED_CALLS = ("cones.sigma_all.calls", "cones.tau_deform.calls")


def solve_large_pass(src: str, block_rows: int | None) -> dict:
    """One pass over the solve-large configurations with lnlab from src;
    block_rows, if given, replaces lnlab.cones._BLOCK_ROWS."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import oracle
    from lnlab import cones, solver
    from workloads import (ANNULUS, DOMAINS, LARGE_CONES, LARGE_DELTA,
                           LARGE_GRID, grid_spacing)
    if block_rows is not None:
        cones._BLOCK_ROWS = block_rows
    solver.continuation_tau(solver.ProblemSpec(
        cone=cones.ConeSpec(3, 1), tau=0.5, domain=solver.Ball(1.0),
        delta=LARGE_DELTA, grid=1000))
    digest = hashlib.sha256()
    before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    for n, k, tau in LARGE_CONES:
        for domain in DOMAINS:
            spec = solver.ProblemSpec(
                cone=cones.ConeSpec(n, k), tau=tau,
                domain=solver.Ball(1.0) if domain == "ball" else solver.Annulus(*ANNULUS),
                delta=LARGE_DELTA, grid=LARGE_GRID)
            tol = oracle.rounding_floor(grid_spacing(domain, LARGE_GRID))
            report = solver.continuation_tau(spec, solver.NewtonOptions(tol=tol))
            for values in (report.profile.u, report.residual_nodes,
                           report.margin_nodes):
                digest.update(values.tobytes())
            digest.update(json.dumps(report.to_dict()).encode())
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {"wall_s": wall, "sys_s": after.ru_stime - before.ru_stime,
            "user_s": after.ru_utime - before.ru_utime,
            "minor_faults": after.ru_minflt - before.ru_minflt,
            "max_rss_mb": after.ru_maxrss / 1024, "outputs_sha256": digest.hexdigest()}


def run_pass(checkout: Path, block_rows: int | None = None) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, __file__, "--pass", str(checkout / "src"), str(block_rows)]
    result = json.loads(subprocess.run(cmd, env=env, check=True, capture_output=True,
                                       text=True).stdout)
    print(f"{checkout.name} pass block_rows={block_rows}: wall {result['wall_s']:.3f} s, "
          f"{result['minor_faults']} minor faults", file=sys.stderr, flush=True)
    return result


def pass_summary(runs: list) -> dict:
    return {"runs": runs,
            **{key: statistics.median(r[key] for r in runs)
               for key in ("wall_s", "sys_s", "user_s", "minor_faults")},
            "outputs_sha256": sorted({r["outputs_sha256"] for r in runs})}


def pass_pairs(parent: Path, change: Path) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(PASS_PAIRS):
        sides = [("parent", parent), ("change", change)]
        for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
            runs[side].append(run_pass(checkout))
    out = {side: pass_summary(side_runs) for side, side_runs in runs.items()}
    out["wall_s"] = {side: summarise([r["wall_s"] for r in runs[side]])
                     for side in runs}
    out["same_outputs"] = (out["parent"]["outputs_sha256"]
                           == out["change"]["outputs_sha256"])
    return out


def block_sweep(change: Path) -> dict:
    runs = {size: [] for size in BLOCK_SWEEP}
    for _ in range(SWEEP_ROUNDS):
        for size in BLOCK_SWEEP:
            runs[size].append(run_pass(change, size))
    return {str(size): pass_summary(size_runs) for size, size_runs in runs.items()}


def traced_counts(traced_run: dict) -> dict:
    p, c = (traced_run[side]["metrics"] for side in ("parent", "change"))
    rows = [name for name in p if name.endswith(".rows")]
    return {"repeated": {name: {"parent": p[name], "change": c[name]}
                         for name in REPEATED + tuple(rows)},
            "all_repeat": all(p[name] == c[name] for name in REPEATED + tuple(rows)),
            "blocked_calls": {name: {"parent": p[name], "change": c[name],
                                     "ratio": c[name] / p[name]}
                              for name in BLOCKED_CALLS}}


def main():
    if sys.argv[1:2] == ["--pass"]:
        block_rows = None if sys.argv[3] == "None" else int(sys.argv[3])
        json.dump(solve_large_pass(sys.argv[2], block_rows), sys.stdout)
        return
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    parent, change = Path(sys.argv[1]).resolve(), ROOT
    runs = compare(parent, change, ["solve-large"], SOLVE_LARGE_PAIRS, FIRST_SEED)
    runs.update(compare(parent, change, ["cli-solve", "verify"], OTHER_PAIRS,
                        FIRST_SEED))
    traced_solve = traced(parent, change, "solve-large", TRACED)
    summary = {
        "claim": claim(runs, "solve-large"),
        "perfbench": runs,
        "solve_large_pass": pass_pairs(parent, change),
        "block_sweep": block_sweep(change),
        "traced_solve_large": traced_solve,
        "traced_counts": traced_counts(traced_solve),
    }
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
