"""Before/after numbers for the CSV writer of `lnlab solve`, SolveReport.to_csv.

    python3 benchmarks/bench_solve_output.py PARENT_CHECKOUT > BENCH_name.json

Compares this checkout with PARENT_CHECKOUT (another lnlab checkout, e.g. made
with `git archive`), in three parts:

1. `SolveReport.to_csv` wall time at 1e3, 1e4 and 1e5 rows: the median of
   repeated calls after 2 untimed ones, in a fresh interpreter per checkout,
   over CSV_ROUNDS alternating (parent, change) rounds run by
   `bench_pair_kernel.call_rounds`; the summary holds the median over
   rounds.  The report is built by hand with full-precision values in
   every column (a smooth profile, residuals near 1e-11, margins in
   (0, 1)), so both writers format the same floats.
2. perfbench/run.py --trace 0 for alternating (parent, change) pairs, run by
   `bench_pair_kernel.compare` on seeds from FIRST_SEED: CLI_PAIRS pairs on
   cli-solve, the workload that writes CSV, and OTHER_PAIRS pairs on
   solve-large and verify, which never call `to_csv` and should not move.
   The cli-solve `run_s` claim is summarised under "claim".
3. One perfbench/run.py --trace 1 cli-solve run on seed 1 per checkout,
   with every per-layer metric: `solver.to_csv.s` and
   `schouten.RadialProfile.s` should fall while every `.calls` and `.rows`
   count repeats.

Progress goes to stderr; the summary is one JSON document on stdout.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_pair_kernel import call_rounds, claim, compare, traced

ROOT = Path(__file__).resolve().parent.parent
CSV_ROWS = {1_000: 50, 10_000: 20, 100_000: 5}     # rows: timed calls
CSV_ROUNDS = 5
CLI_PAIRS = 10
OTHER_PAIRS = 5
FIRST_SEED = 1701
# Every per-layer metric.
TRACED = ("",)


def to_csv_times(src: str) -> dict:
    """Median to_csv milliseconds per row count, lnlab from src."""
    sys.path.insert(0, src)
    import numpy as np
    from lnlab.schouten import RadialProfile
    from lnlab.solver import SolveReport
    rng = np.random.default_rng(0)
    out = {}
    for rows, calls in CSV_ROWS.items():
        r = np.linspace(0.0, 1.0, rows)
        report = SolveReport(
            profile=RadialProfile(r=r, u=(1 - r**2) / 2 + 0.05),
            residual_sup=1e-11, admissibility_margin_min=0.1,
            boundary_slope=1.0, c0_bounds=(0.05, 0.55), grad_sup=1.0,
            newton_iterations=3, continuation_steps=1, converged=True,
            tau=0.9, delta=0.05,
            residual_nodes=rng.uniform(0.0, 1e-11, rows),
            margin_nodes=rng.uniform(0.0, 1.0, rows))
        for _ in range(2):
            report.to_csv()
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            report.to_csv()
            times.append(time.perf_counter() - start)
        out[f"rows={rows}"] = statistics.median(times) * 1e3
    return out


def run_to_csv(checkout: Path) -> dict:
    cmd = [sys.executable, __file__, "--to-csv", str(checkout / "src")]
    return json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                     text=True).stdout)


def main():
    if sys.argv[1:2] == ["--to-csv"]:
        json.dump(to_csv_times(sys.argv[2]), sys.stdout)
        return
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    parent, change = Path(sys.argv[1]).resolve(), ROOT
    rounds = call_rounds(parent, change, run_to_csv, CSV_ROUNDS)
    to_csv = {side: {key: ms[f"{side}_ms"] for key, ms in rounds.items()}
              for side in ("parent", "change")}
    to_csv["speedup"] = {key: ms["speedup"] for key, ms in rounds.items()}
    perfbench = compare(parent, change, ["cli-solve"], CLI_PAIRS, FIRST_SEED)
    perfbench.update(compare(parent, change, ["solve-large", "verify"],
                             OTHER_PAIRS, FIRST_SEED))
    summary = {
        "to_csv_ms": to_csv,
        "perfbench": perfbench,
        "claim": claim(perfbench, "cli-solve"),
        "traced_cli_solve": traced(parent, change, "cli-solve", TRACED),
    }
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
