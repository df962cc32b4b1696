"""Byte-compare the deterministic outputs of this checkout and another one.

    python3 benchmarks/diff_outputs.py PARENT_CHECKOUT

PARENT_CHECKOUT is another lnlab checkout (e.g. made with `git archive`).
Each command runs in a fresh interpreter, with the checkout's own src/ first
on PYTHONPATH, and writes into a per-checkout directory:

- `lnlab solve --out` for the 36 cli-solve configurations of perfbench
  (the JSON report and every leg CSV);
- library `continuation_tau` at grid 40000 for two cones on the ball and on
  the annulus (the report's `to_csv()` and `to_dict()`): their 40000 and
  39999 PDE rows span two whole cone row blocks and a remainder, so the
  blocked cone pass is compared too.  Newton stops by its default rule;
- `lnlab verify --seed 0 --out` (the JSON report; its stdout holds timings);
- `lnlab cone` at (4,2,1), (3,1,0.7), (6,3,0.5) and (5,5,0.3) (stdout);
- the stdout of each script in demos/.

Every exit code goes into `exit_codes.txt`, and each command's stderr, if
it printed any, into `stderr/NAME.txt`, with the checkout's and the output
directory's paths written as CHECKOUT and OUT: a changed refusal or a new
warning shows as a differing file.  Every command is expected to
exit 0: one that does not is printed with its checkout and code, since a
command that fails the same way in both checkouts leaves identical trees.
The two trees are compared file by file; each file that differs, or exists
on one side only, is printed.  A leg CSV present on both sides also gets its
largest relative |Δu| (|u_change − u_parent| / |u_parent| over the nodes),
a solve JSON the δ-sweep legs whose `newton_iterations` changed, and a
large run's report JSON its `newton_iterations` change; either JSON also
gets the dotted key paths present on one side only.  Exits
1 if any file differs or any command exited nonzero, 0 if the trees are
identical and every command exited 0.  Progress goes to stderr.
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
from workloads import ANNULUS, CLI_CONES, DOMAINS, LARGE_DELTA  # noqa: E402

CONES = ((4, 2, 1), (3, 1, 0.7), (6, 3, 0.5), (5, 5, 0.3))
LARGE_CONES = ((4, 2, 0.95), (5, 3, 0.5))
LARGE_GRID = 40_000
# argv: out directory, n, k, tau, domain, delta.
LARGE_RUN = """
import json, sys
from pathlib import Path
from lnlab.cones import ConeSpec
from lnlab.solver import Annulus, Ball, ProblemSpec, continuation_tau
out, n, k, tau, domain, delta = sys.argv[1:]
inner, outer = %r
spec = ProblemSpec(cone=ConeSpec(int(n), int(k)), tau=float(tau),
                   domain=Ball(1.0) if domain == "ball" else Annulus(inner, outer),
                   delta=float(delta), grid=%d)
report = continuation_tau(spec)
Path(out).mkdir(parents=True)
(Path(out) / "report.csv").write_text(report.to_csv())
(Path(out) / "report.json").write_text(json.dumps(report.to_dict(), indent=1))
""" % (ANNULUS, LARGE_GRID)
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
    for n, k, tau in LARGE_CONES:
        for domain in DOMAINS:
            name = f"large/{n}_{k}_{tau}_{domain}"
            yield (name, [sys.executable, "-c", LARGE_RUN, str(out / name), str(n),
                          str(k), str(tau), domain, repr(LARGE_DELTA)], None)
    yield ("verify", lnlab + ["verify", "--seed", "0",
                              "--out", str(out / "verify.json")], None)
    for n, k, tau in CONES:
        name = f"cone_{n}_{k}_{tau}"
        yield (name, lnlab + ["cone", "--n", str(n), "--k", str(k),
                              "--tau", str(tau)], out / f"{name}.json")
    for demo in DEMOS:
        yield (f"demo_{demo}", [sys.executable, str(checkout / "demos" / f"{demo}.py")],
               out / f"demo_{demo}.txt")


def run_checkout(checkout: Path, out: Path) -> list:
    """Run every command of checkout into out; [(name, exit code), ...]."""
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
        if proc.stderr:
            stderr = out / "stderr" / f"{name}.txt"
            stderr.parent.mkdir(parents=True, exist_ok=True)
            stderr.write_text(proc.stderr.replace(str(checkout), "CHECKOUT")
                              .replace(str(out), "OUT"))
        codes.append((name, proc.returncode))
    (out / "exit_codes.txt").write_text("".join(f"{name} {code}\n"
                                                for name, code in codes))
    return codes


def nonzero_exits(codes: dict) -> list:
    """"side: name exited code" for every nonzero code in codes, a map from
    each side to its [(name, exit code), ...]."""
    return [f"{side}: {name} exited {code}" for side, side_codes in codes.items()
            for name, code in side_codes if code]


def files(tree: Path) -> set:
    return {p.relative_to(tree) for p in tree.rglob("*") if p.is_file()}


def key_paths(document: dict, prefix: str = "") -> set:
    """The dotted path of every key in a JSON object and the objects nested
    in it, e.g. delta_sweep.legs."""
    paths = set()
    for key, value in document.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= key_paths(value, f"{prefix}{key}.")
    return paths


def change_detail(old: Path, new: Path) -> str | None:
    """The size of a change in a leg CSV, a solve JSON or a large run's
    report JSON, or None."""
    if old.suffix == ".csv":
        u_old, u_new = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)[:, 1]
                        for p in (old, new))
        if u_old.shape != u_new.shape:
            return f"node count {u_old.size} -> {u_new.size}"
        return f"max relative |du| {np.max(np.abs(u_new - u_old) / np.abs(u_old)):.3e}"
    if old.name not in ("solve.json", "report.json"):
        return None
    doc_old, doc_new = (json.loads(p.read_text()) for p in (old, new))
    if old.name == "solve.json":
        legs_old, legs_new = doc_old["delta_sweep"]["legs"], doc_new["delta_sweep"]["legs"]
        changed = [f"leg {i}: {a['newton_iterations']} -> {b['newton_iterations']}"
                   for i, (a, b) in enumerate(zip(legs_old, legs_new))
                   if a["newton_iterations"] != b["newton_iterations"]]
        if len(legs_old) != len(legs_new):
            changed.append(f"leg count {len(legs_old)} -> {len(legs_new)}")
        details = ["newton_iterations " + ("; ".join(changed) or "unchanged")]
    else:
        before, after = doc_old["newton_iterations"], doc_new["newton_iterations"]
        details = ["newton_iterations " + (f"{before} -> {after}" if before != after
                                           else "unchanged")]
    keys_old, keys_new = key_paths(doc_old), key_paths(doc_new)
    for verb, keys in (("removed", keys_old - keys_new), ("added", keys_new - keys_old)):
        if keys:
            details.append(f"keys {verb}: {', '.join(sorted(keys))}")
    return "; ".join(details)


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
        codes = {}
        for side, checkout in (("parent", parent), ("change", ROOT)):
            trees[side].mkdir()
            codes[side] = run_checkout(checkout, trees[side])
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
        failed = nonzero_exits(codes)
        for line in failed:
            print(line)
        print(f"{len(old | new)} files, {len(differ)} differ, "
              f"{len(failed)} nonzero exits")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
