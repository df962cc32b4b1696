"""Byte-compare the deterministic outputs of this checkout and another one.

    python3 benchmarks/diff_outputs.py PARENT_CHECKOUT

PARENT_CHECKOUT is another lnlab checkout (e.g. made with `git archive`).
Each command runs in a fresh interpreter, with the checkout's own src/ first
on PYTHONPATH, and writes into a per-checkout directory:

- `lnlab solve --out` for the 36 cli-solve configurations of perfbench
  (the JSON report and every leg CSV);
- `lnlab verify --seed 0 --out` (the JSON report; its stdout holds timings);
- `lnlab cone` at (4,2,1), (3,1,0.7), (6,3,0.5) and (5,5,0.3) (stdout);
- the stdout of each script in demos/.

Every exit code goes into `exit_codes.txt`, and a nonzero one is also
reported on stderr.  The two trees are compared file by file; each file that
differs, or exists on one side only, is printed.  A leg CSV present on both
sides also gets its largest relative |Δu| (|u_change − u_parent| / |u_parent|
over the nodes), and a solve JSON the δ-sweep legs whose
`newton_iterations` changed.  Exits 1 if any file differs, 0 if the trees are
identical.  Progress goes to stderr.
"""

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import ANNULUS, CLI_CONES, DOMAINS  # noqa: E402

CONES = ((4, 2, 1), (3, 1, 0.7), (6, 3, 0.5), (5, 5, 0.3))
DEMOS = ("barrier_and_certificates", "cone_geometry_tour", "continuation_run")


def commands(checkout: Path, out: Path):
    """(name, argv, stdout file or None) for every compared command."""
    lnlab = [sys.executable, "-m", "lnlab.cli"]
    for n, k, tau in CLI_CONES:
        for domain in DOMAINS:
            name = f"solve/{n}_{k}_{tau}_{domain}"
            argv = ["solve", "--n", str(n), "--k", str(k), "--tau", str(tau),
                    "--domain", domain]
            if domain == "annulus":
                argv += ["--inner", str(ANNULUS[0]), "--outer", str(ANNULUS[1])]
            yield name, lnlab + argv + ["--out", str(out / name / "solve.json")], None
    yield ("verify", lnlab + ["verify", "--seed", "0",
                              "--out", str(out / "verify.json")], None)
    for n, k, tau in CONES:
        name = f"cone_{n}_{k}_{tau}"
        yield (name, lnlab + ["cone", "--n", str(n), "--k", str(k),
                              "--tau", str(tau)], out / f"{name}.json")
    for demo in DEMOS:
        yield (f"demo_{demo}", [sys.executable, str(checkout / "demos" / f"{demo}.py")],
               out / f"demo_{demo}.txt")


def run_checkout(checkout: Path, out: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    codes = []
    for name, argv, stdout in commands(checkout, out):
        print(f"{checkout}: {name}", file=sys.stderr)
        proc = subprocess.run(argv, env=env, cwd=out, capture_output=True,
                              text=True)
        if stdout is not None:
            stdout.write_text(proc.stdout)
        codes.append(f"{name} {proc.returncode}\n")
        if proc.returncode:
            print(f"{checkout}: {name} exited {proc.returncode}", file=sys.stderr)
    (out / "exit_codes.txt").write_text("".join(codes))


def files(tree: Path) -> set:
    return {p.relative_to(tree) for p in tree.rglob("*") if p.is_file()}


def change_detail(old: Path, new: Path) -> str | None:
    """The size of a change in a leg CSV or a solve JSON, or None."""
    if old.suffix == ".csv":
        u_old, u_new = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)[:, 1]
                        for p in (old, new))
        if u_old.shape != u_new.shape:
            return f"node count {u_old.size} -> {u_new.size}"
        return f"max relative |du| {np.max(np.abs(u_new - u_old) / np.abs(u_old)):.3e}"
    if old.name == "solve.json":
        legs_old, legs_new = (json.loads(p.read_text())["delta_sweep"]["legs"]
                              for p in (old, new))
        changed = [f"leg {i}: {a['newton_iterations']} -> {b['newton_iterations']}"
                   for i, (a, b) in enumerate(zip(legs_old, legs_new))
                   if a["newton_iterations"] != b["newton_iterations"]]
        if len(legs_old) != len(legs_new):
            changed.append(f"leg count {len(legs_old)} -> {len(legs_new)}")
        return "newton_iterations " + ("; ".join(changed) or "unchanged")
    return None


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    if not (parent / "src" / "lnlab").is_dir():
        print(f"{parent} is not an lnlab checkout", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side, checkout in (("parent", parent), ("change", ROOT)):
            trees[side].mkdir()
            run_checkout(checkout, trees[side])
        old, new = files(trees["parent"]), files(trees["change"])
        both = old & new
        differ = sorted((p for p in old | new if p not in both
                         or not filecmp.cmp(trees["parent"] / p,
                                            trees["change"] / p, shallow=False)),
                        key=str)
        for path in differ:
            detail = path in both and change_detail(trees["parent"] / path,
                                                    trees["change"] / path)
            print(f"differs: {path}" + (f" ({detail})" if detail else ""))
        print(f"{len(old | new)} files, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
