"""Before/after numbers for the closed-form mu+ of `lnlab.cones`.

    python3 benchmarks/bench_mu_plus.py PARENT_CHECKOUT > BENCH_mu_plus.json

Compares this checkout with PARENT_CHECKOUT (another lnlab checkout, e.g. made
with `git archive`), in three parts:

1. perfbench/run.py --trace 0 for alternating (parent, change) pairs, run by
   `bench_pair_kernel.compare`: VERIFY_PAIRS pairs on verify, the one
   workload that calls `mu_plus`, and OTHER_PAIRS pairs on cli-solve and
   solve-large, which never call it and should not move.  The verify
   `run_s` claim is summarised under "claim": the change's wins, and the
   distance between the medians against the parent's interquartile range.
2. One perfbench/run.py --trace 1 verify run on seed 1 per checkout, for
   `cones.mu_plus.*`, `cones.cone_margin.*`, `cli.main.*` and the
   per-criterion `acceptance.*.s` spans.
3. `lnlab cone` for n = 3..8, every k and the taus in CONE_TAUS, in a fresh
   interpreter per checkout: every `mu_plus` or `contains_e1` value that
   differs, with the exact mu+ to 40 digits (mpmath, from the float tau) and
   whether the change's value is it correctly rounded.

Progress goes to stderr; the summary is one JSON document on stdout.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import mpmath
from bench_pair_kernel import claim, compare, traced

ROOT = Path(__file__).resolve().parent.parent
VERIFY_PAIRS = 10
OTHER_PAIRS = 5
FIRST_SEED = 701
TRACED = ("cones.mu_plus.", "cones.cone_margin.", "cli.main.", "acceptance.")
CONE_TAUS = (0.0, 0.1, 0.25, 0.5, 0.7, 0.75, 0.8, 0.9, 0.95, 0.99,
             0.99999, 0.9999999, 1.0)


def cone_rows(src: str) -> dict:
    """`lnlab cone` JSON per (n, k, tau), lnlab from src."""
    sys.path.insert(0, src)
    from lnlab.cli import main
    out = {}
    for n in range(3, 9):
        for k in range(1, n + 1):
            for tau in CONE_TAUS:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    main(["cone", "--n", str(n), "--k", str(k), "--tau", repr(tau)])
                out[f"{n},{k},{tau!r}"] = json.loads(buf.getvalue())
    return out


def exact_mu_plus(n: int, k: int, tau: float):
    """The closed form of mu+ at 40 digits: (its text, its nearest float)."""
    with mpmath.workdps(40):
        t = mpmath.mpf(tau)
        s = 1 - t
        mu = (k * s * (n - 1) + (n - k) * (t + s * (n - 1))) / (k + (n - k) * s)
        return mpmath.nstr(mu, 40), float(mu)


def cone_changes(parent: Path, change: Path) -> dict:
    rows = {}
    for side, checkout in (("parent", parent), ("change", change)):
        cmd = [sys.executable, __file__, "--cone", str(checkout / "src")]
        rows[side] = json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                               text=True).stdout)
    changed = []
    others_equal = True
    for key, p in rows["parent"].items():
        c = rows["change"][key]
        values = {f: [p.pop(f), c.pop(f)] for f in ("mu_plus", "contains_e1")}
        others_equal = others_equal and p == c
        if all(a == b for a, b in values.values()):
            continue
        n, k, tau = key.split(",")
        text, nearest = exact_mu_plus(int(n), int(k), float(tau))
        changed.append({"n": int(n), "k": int(k), "tau": float(tau), **values,
                        "exact_mu_plus": text,
                        "correctly_rounded": nearest == values["mu_plus"][1]})
    return {"cases": len(rows["parent"]), "other_fields_unchanged": others_equal,
            "changed": changed}


def main():
    if sys.argv[1:2] == ["--cone"]:
        json.dump(cone_rows(sys.argv[2]), sys.stdout)
        return
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    parent, change = Path(sys.argv[1]).resolve(), ROOT
    runs = compare(parent, change, ["verify"], VERIFY_PAIRS, FIRST_SEED)
    runs.update(compare(parent, change, ["cli-solve", "solve-large"],
                        OTHER_PAIRS, FIRST_SEED))
    summary = {
        "claim": claim(runs, "verify"),
        "perfbench": runs,
        "traced_verify": traced(parent, change, "verify", TRACED),
        "lnlab_cone": cone_changes(parent, change),
    }
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
