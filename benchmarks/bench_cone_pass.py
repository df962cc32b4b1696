"""Before/after numbers for the one-pass cone functions of `lnlab.cones`.

    python3 benchmarks/bench_cone_pass.py PARENT_CHECKOUT > BENCH_cone_pass.json

Compares this checkout with PARENT_CHECKOUT (another lnlab checkout, e.g. made
with `git archive`), in four parts:

1. `acceptance.check_cone_properties` wall time: the median of 7 calls
   (seeds 0..6) after one untimed call, in a fresh interpreter per checkout.
   It is the criterion that calls `f_eval` and `grad_f` on batches of
   random spectra.
2. perfbench/run.py --trace 0 for alternating (parent, change) pairs, run by
   `bench_pair_kernel.compare`: VERIFY_PAIRS pairs on verify, the workload
   that calls `f_eval` and `grad_f`, and OTHER_PAIRS pairs on cli-solve and
   solve-large, whose solver path makes the same calls before and after.
   The verify `run_s` claim is summarised under "claim".
3. One perfbench/run.py --trace 1 verify run on seed 1 per checkout, for the
   `cones.*`, `acceptance.*` and `cli.main.*` spans, and under
   "verify_saving" the drop in `tau_deform`, `sigma_all` and `cone_margin`
   calls next to the `f_eval` + `grad_f` calls that no longer make a second
   pass, and the drop in `acceptance.cone-properties.s` next to the drop in
   `cli.main.s`.
4. One perfbench/run.py --trace 1 solve-large run on seed 1 per checkout, for
   the `cones.*` and `solver.*` spans: the solver's counts should repeat.

Progress goes to stderr; the summary is one JSON document on stdout.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_pair_kernel import claim, compare, traced

ROOT = Path(__file__).resolve().parent.parent
VERIFY_PAIRS = 10
OTHER_PAIRS = 5
FIRST_SEED = 1301
TRACED_VERIFY = ("cones.", "acceptance.", "cli.main.")
TRACED_SOLVE = ("cones.", "solver.")


def cone_properties_s(src: str) -> float:
    """Median seconds of one check_cone_properties call, lnlab from src."""
    sys.path.insert(0, src)
    from lnlab.acceptance import check_cone_properties
    check_cone_properties(0)
    times = []
    for seed in range(7):
        start = time.perf_counter()
        check_cone_properties(seed)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_cone_properties(checkout: Path) -> float:
    cmd = [sys.executable, __file__, "--cone-properties", str(checkout / "src")]
    return json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                     text=True).stdout)


def verify_saving(traced_verify: dict) -> dict:
    """What the change saves in the traced verify run, layer by layer."""
    p, c = (traced_verify[side]["metrics"] for side in ("parent", "change"))

    def drop(name):
        return p[name] - c[name]

    return {"second_passes": c["cones.f_eval.calls"] + c["cones.grad_f.calls"],
            "tau_deform_calls_drop": drop("cones.tau_deform.calls"),
            "sigma_all_calls_drop": drop("cones.sigma_all.calls"),
            "cone_margin_calls_drop": drop("cones.cone_margin.calls"),
            "cone_properties_s_drop": drop("acceptance.cone-properties.s"),
            "cli_main_s_drop": drop("cli.main.s")}


def main():
    if sys.argv[1:2] == ["--cone-properties"]:
        json.dump(cone_properties_s(sys.argv[2]), sys.stdout)
        return
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    parent, change = Path(sys.argv[1]).resolve(), ROOT
    cone_properties = {"parent": run_cone_properties(parent),
                       "change": run_cone_properties(change)}
    runs = compare(parent, change, ["verify"], VERIFY_PAIRS, FIRST_SEED)
    runs.update(compare(parent, change, ["cli-solve", "solve-large"],
                        OTHER_PAIRS, FIRST_SEED))
    traced_verify = traced(parent, change, "verify", TRACED_VERIFY)
    summary = {
        "claim": claim(runs, "verify"),
        "cone_properties_s": cone_properties,
        "perfbench": runs,
        "traced_verify": traced_verify,
        "verify_saving": verify_saving(traced_verify),
        "traced_solve_large": traced(parent, change, "solve-large", TRACED_SOLVE),
    }
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
