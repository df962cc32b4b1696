"""Before/after numbers for the full-spectrum σ pass on contiguous columns and
the gradient that skips one sorted position at a time.

    python3 benchmarks/bench_full_path.py PARENT_CHECKOUT > BENCH_full_path.json

Compares this checkout with PARENT_CHECKOUT (another lnlab checkout, e.g. made
with `git archive`), in three parts:

1. perfbench/run.py --trace 0 for alternating (parent, change) pairs, run by
   `bench_pair_kernel.compare`: VERIFY_PAIRS pairs on verify, the workload
   whose `cone-properties`, `mu-plus-table` and `ricci-identity` criteria
   take full spectra, and OTHER_PAIRS pairs on cli-solve and solve-large,
   which take pairs only.  The verify `run_s` claim is summarised under
   "claim".
2. One perfbench/run.py --trace 1 verify run on seed 1 per checkout, for the
   `cones.*`, `acceptance.*`, `cli.*` and `solver.*` metrics, and under
   "traced_counts" every `.calls` and `.rows` count of the two sides, which
   must repeat exactly.
3. Per-call `f_eval` and `grad_f` times on 2000 x n full spectra (drawn as
   in `check_cone_properties`) for each cone of `acceptance._PROPERTY_CONES`:
   the median of CALLS calls after 5 untimed ones, in a fresh interpreter
   per checkout with BLAS pinned to one thread, over CALL_ROUNDS alternating
   rounds; the summary holds the median over rounds.

Progress goes to stderr; the summary is one JSON document on stdout.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_pair_kernel import call_rounds, claim, compare, traced

ROOT = Path(__file__).resolve().parent.parent
VERIFY_PAIRS = 10
OTHER_PAIRS = 5
FIRST_SEED = 1501
TRACED = ("cones.", "acceptance.", "cli.", "solver.")
ROWS = 2000
CALLS = 40
CALL_ROUNDS = 3


def call_times(src: str) -> dict:
    """Median milliseconds per f_eval and grad_f call on ROWS full spectra
    for each property cone, lnlab from src."""
    sys.path.insert(0, src)
    import numpy as np
    from lnlab.acceptance import _PROPERTY_CONES
    from lnlab.cones import f_eval, grad_f
    rng = np.random.default_rng(0)
    out = {}
    for cone in _PROPERTY_CONES:
        lam = 0.05 + rng.exponential(1.0, size=(ROWS, cone.n))
        for fn in (f_eval, grad_f):
            for _ in range(5):
                fn(cone, lam)
            times = []
            for _ in range(CALLS):
                start = time.perf_counter()
                fn(cone, lam)
                times.append(time.perf_counter() - start)
            key = f"{fn.__name__},n={cone.n},k={cone.k},tau={cone.tau}"
            out[key] = statistics.median(times) * 1e3
    return out


def run_calls(checkout: Path) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, __file__, "--calls", str(checkout / "src")]
    result = json.loads(subprocess.run(cmd, env=env, check=True, capture_output=True,
                                       text=True).stdout)
    print(f"{checkout.name} call times done", file=sys.stderr, flush=True)
    return result


def traced_counts(traced_run: dict) -> dict:
    p, c = (traced_run[side]["metrics"] for side in ("parent", "change"))
    names = sorted(name for name in p if name.endswith((".calls", ".rows"))
                   or name == "solver.evals")
    return {"counts": {name: {"parent": p[name], "change": c.get(name)}
                       for name in names},
            "all_repeat": all(p[name] == c.get(name) for name in names)}


def main():
    if sys.argv[1:2] == ["--calls"]:
        json.dump(call_times(sys.argv[2]), sys.stdout)
        return
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    parent, change = Path(sys.argv[1]).resolve(), ROOT
    runs = compare(parent, change, ["verify"], VERIFY_PAIRS, FIRST_SEED)
    runs.update(compare(parent, change, ["cli-solve", "solve-large"], OTHER_PAIRS,
                        FIRST_SEED))
    traced_verify = traced(parent, change, "verify", TRACED)
    summary = {
        "claim": claim(runs, "verify"),
        "perfbench": runs,
        "traced_verify": traced_verify,
        "traced_counts": traced_counts(traced_verify),
        "call_ms": call_rounds(parent, change, run_calls, CALL_ROUNDS),
    }
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
