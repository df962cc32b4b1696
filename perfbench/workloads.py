"""The three workloads: seeded op lists, op execution and output checks.

Every workload is a closed loop with one client: one process runs one op at a
time, and each op is one call a user would make.

- solve-large: library continuation_tau at grid 1e5.  Work on 1e5-row
  spectrum arrays dominates, so an operator-kernel change must show here.
- cli-solve: lnlab.cli.main(["solve", ...]) at the default grid of 1000, a tau
  continuation, an 11-leg delta sweep and JSON/CSV output.  Many small
  warm-started Newton solves plus serialization: per-call and
  continuation-policy costs show here.
- verify: lnlab.cli.main(["verify", ...]), the nine-criterion gate.  Dominated
  by many tiny cone_margin calls (mu_plus bisection), so per-call overhead
  in the cones kernels shows here and not on solve-large.

An op list is made of whole passes over a fixed configuration set.  The seed
fixes the order of each pass (and the acceptance seeds of verify); the mix of
configurations, and so the cost of a pass, is the same for every seed.  The
number of passes follows from --seconds and the pass cost measured when the
benchmark was defined, never from a measurement taken during the run.
"""

import contextlib
import io
import json
import random
import shutil
import sys
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("solve-large", "cli-solve", "verify")

# Wall seconds of one pass at the commit that defined the benchmark (2-core
# Xeon sandbox, BLAS pinned to one thread).  Only used to size op lists.
PASS_SECONDS = {"solve-large": 30.0, "cli-solve": 7.5, "verify": 0.9}

LARGE_GRID = 100_000
LARGE_DELTA = 0.05
LARGE_CONES = ((3, 1, 0.9), (4, 2, 0.95), (5, 2, 0.9), (5, 3, 0.5), (6, 3, 0.95))
DOMAINS = ("ball", "annulus")
ANNULUS = (0.5, 1.0)

# lnlab solve configurations: k < n/2 (mu+ of Gamma_k above 1), three tau
# targets, both domains; 36 in all.
CLI_CONES = tuple((n, k, tau) for n in range(3, 7) for k in range(1, n)
                  if 2 * k < n for tau in (0.5, 0.9, 0.95))
CLI_GRID = 1000
CLI_LEGS = 11
# The stopping tolerance `lnlab solve` applies at its default grid.
CLI_TOL = 1e-10

CRITERIA = ("hyperbolic-exactness", "mu-plus-table", "barrier",
            "certificate-constructor", "solver-convergence", "ln-limit",
            "ordering", "cone-properties", "ricci-identity")


def load_lnlab():
    """Import lnlab from this checkout's src/ and nowhere else."""
    init = SRC / "lnlab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} is missing; "
                         "run from the root of an lnlab checkout")
    sys.path.insert(0, str(SRC))
    import lnlab
    import lnlab.cli
    if Path(lnlab.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported lnlab from {lnlab.__file__}, "
                         f"not from {init}")
    return lnlab


def grid_spacing(domain: str, grid: int) -> float:
    lo, hi = (0.0, 1.0) if domain == "ball" else ANNULUS
    return (hi - lo) / grid


def make_ops(workload: str, seed: int, seconds: float) -> list:
    """The run's fixed op list, as plain dicts."""
    rng = random.Random(f"{workload}:{seed}")
    passes = max(1, round(seconds / PASS_SECONDS[workload]))
    ops = []
    for _ in range(passes):
        if workload == "solve-large":
            batch = []
            for n, k, tau in LARGE_CONES:
                for domain in DOMAINS:
                    h = grid_spacing(domain, LARGE_GRID)
                    batch.append({"n": n, "k": k, "tau": tau, "domain": domain,
                                  "grid": LARGE_GRID, "delta": LARGE_DELTA,
                                  "tol": oracle.rounding_floor(h)})
        elif workload == "cli-solve":
            batch = [{"n": n, "k": k, "tau": tau, "domain": domain}
                     for n, k, tau in CLI_CONES for domain in DOMAINS]
        else:
            batch = [{"verify_seed": rng.randrange(2**31)}]
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


def pass_size(workload: str) -> int:
    """Ops in one pass over the workload's configurations."""
    return {"solve-large": len(LARGE_CONES) * len(DOMAINS),
            "cli-solve": len(CLI_CONES) * len(DOMAINS),
            "verify": 1}[workload]


def warm_up(lnlab, workload: str, workdir: Path):
    """One small untimed op, so lazy imports and first-call set-up are paid."""
    if workload == "solve-large":
        s = lnlab.solver
        spec = s.ProblemSpec(cone=lnlab.cones.ConeSpec(3, 1), tau=0.5,
                             domain=s.Ball(1.0), delta=LARGE_DELTA, grid=1000)
        s.continuation_tau(spec)
        return
    if workload == "cli-solve":
        argv = ["solve", "--grid", "100", "--out", str(workdir / "solve.json")]
    else:
        argv = ["verify", "--only", "mu-plus-table",
                "--out", str(workdir / "verify.json")]
    with _quiet():
        lnlab.cli.main(argv)
    clear(workdir)


def run_op(lnlab, workload: str, op: dict, workdir: Path):
    """Execute one op; returns what check_op needs."""
    if workload == "solve-large":
        s = lnlab.solver
        domain = (s.Ball(1.0) if op["domain"] == "ball"
                  else s.Annulus(*ANNULUS))
        spec = s.ProblemSpec(cone=lnlab.cones.ConeSpec(op["n"], op["k"]),
                             tau=op["tau"], domain=domain, delta=op["delta"],
                             grid=op["grid"])
        return s.continuation_tau(spec, opts=s.NewtonOptions(tol=op["tol"]))
    if workload == "cli-solve":
        argv = ["solve", "--n", str(op["n"]), "--k", str(op["k"]),
                "--tau", str(op["tau"]), "--domain", op["domain"]]
        if op["domain"] == "annulus":
            argv += ["--inner", str(ANNULUS[0]), "--outer", str(ANNULUS[1])]
        argv += ["--out", str(workdir / "solve.json")]
    else:
        argv = ["verify", "--seed", str(op["verify_seed"]),
                "--out", str(workdir / "verify.json")]
    with _quiet() as err:
        code = lnlab.cli.main(argv)
    return code, err.getvalue().strip()


def check_op(workload: str, op: dict, output, workdir: Path):
    """(ok, detail) for one op's output; clears the op's files."""
    try:
        if workload == "solve-large":
            return _check_large(op, output)
        code, err = output
        if code != 0:
            return False, f"exit code {code}: {err}"
        if workload == "cli-solve":
            return _check_cli_solve(op, workdir)
        return _check_verify(workdir)
    finally:
        clear(workdir)


def _check_large(op, report):
    if not report.converged:
        return False, "not converged"
    r, u = report.profile.r, report.profile.u
    if r.size != op["grid"] + 1:
        return False, f"profile has {r.size} nodes"
    ok, measured, limit = oracle.check_profile(
        r, u, domain=op["domain"], n=op["n"], k=op["k"], tau=op["tau"],
        delta=op["delta"], tol=op["tol"])
    return ok, f"oracle {measured:.3e} (limit {limit:.3e})"


def _check_cli_solve(op, workdir: Path):
    summary = json.loads((workdir / "solve.json").read_text())
    sweep = summary["delta_sweep"]
    if not (summary["tau_continuation"]["converged"] and sweep["converged"]):
        return False, "not converged"
    if sweep["monotonicity_max_violation"] != 0:
        return False, f"monotonicity violation {sweep['monotonicity_max_violation']}"
    deltas = sweep["deltas"]
    if len(deltas) != CLI_LEGS or not all(leg["converged"] for leg in sweep["legs"]):
        return False, f"{len(deltas)} converged legs, expected {CLI_LEGS}"
    worst, worst_limit = 0.0, 0.0
    for i, delta in enumerate(deltas):
        data = np.loadtxt(workdir / f"solve_leg{i:02d}.csv", delimiter=",",
                          skiprows=1, usecols=(0, 1))
        if data.shape[0] != CLI_GRID + 1:
            return False, f"leg {i} has {data.shape[0]} rows"
        ok, measured, limit = oracle.check_profile(
            data[:, 0], data[:, 1], domain=op["domain"], n=op["n"], k=op["k"],
            tau=op["tau"], delta=delta, tol=CLI_TOL)
        if not ok:
            return False, f"leg {i}: oracle {measured:.3e} > {limit:.3e}"
        worst, worst_limit = max(worst, measured), limit
    return True, f"oracle {worst:.3e} (limit {worst_limit:.3e})"


def _check_verify(workdir: Path):
    results = json.loads((workdir / "verify.json").read_text())
    names = [r["name"] for r in results]
    if names != list(CRITERIA):
        return False, f"criteria {names}"
    failed = [r["name"] for r in results if not r["passed"]]
    if failed:
        return False, "failed: " + ", ".join(failed)
    return True, f"{len(results)}/{len(CRITERIA)} passed"


@contextlib.contextmanager
def _quiet():
    """Keep the CLI's report lines off the benchmark's own stdout; yields
    the captured stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        yield err


def clear(workdir: Path):
    for path in workdir.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
