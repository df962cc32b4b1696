"""Run the benchmark's two ten-seed sets and one traced run per workload.

    python3 perfbench/baseline.py > summary.json

For each workload this runs perfbench/run.py with --trace 0 on seeds 1-10
and then on seeds 11-20, each run as long as BENCHMARK.json's run_seconds,
and once with --trace 1 on seed 1.  For every end-to-end metric it reports
each set's ten values, median, quartiles and quartile spread (Q3 - Q1 as a
share of the median), and how far the second median lies from the first in
the metric's worse direction, as a share of the first: the two figures each
bound is set against.  The wall seconds of every run are kept too.
Progress goes to stderr; the summary is one JSON document on stdout.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = (range(1, 11), range(11, 21))
TRACE_SEED = 1


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    wall = time.perf_counter() - start
    result = json.loads(out[-1])
    provenance = json.loads(out[-2].split(" ", 1)[1])
    print(f"{workload} seed {seed} trace {trace} ({wall:.0f} s): "
          f"correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                     if trace == 0), file=sys.stderr, flush=True)
    return result, provenance, wall


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    summary = {"run_seconds": seconds, "sets": [list(s) for s in SETS],
               "traced_seed": TRACE_SEED, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        sets, walls = [], []
        for seeds in SETS:
            results = []
            for seed in seeds:
                result, provenance, wall = run(workload, seed, seconds, 0)
                results.append(result)
                walls.append(wall)
            sets.append(results)
        end_to_end = {}
        for m in bench["end_to_end"]:
            per_set = [summarise([r["metrics"][m["name"]]["value"] for r in results])
                       for results in sets]
            first, second = per_set[0]["median"], per_set[1]["median"]
            sign = 1 if m["better"] == "lower" else -1
            end_to_end[m["name"]] = {
                "unit": m["unit"], "bound": m["bound"],
                "worse_by": sign * (second - first) / first, "sets": per_set}
        traced, _, traced_wall = run(workload, TRACE_SEED, seconds, 1)
        summary["workloads"][workload] = {
            "provenance": provenance,
            "all_correct": all(r["correct"] for results in sets for r in results),
            "run_wall_s": {"median": statistics.median(walls), "max": max(walls),
                           "traced": traced_wall},
            "end_to_end": end_to_end,
            "traced_correct": traced["correct"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
