"""Before/after numbers for the Newton step's banded solve and bookkeeping.

    python3 benchmarks/bench_newton_step.py PARENT_CHECKOUT > BENCH_newton_step.json

Compares this checkout with PARENT_CHECKOUT (another lnlab checkout, e.g. made
with `git archive`), in four parts:

1. The stages of one Newton step at grids 1e3, 1e4 and 1e5, on the unit ball
   for the cone (4, 2) at tau = 0.95 from the torsion start: the stencil,
   the eigenpair, `cone_margin`, `_f_and_grad_unchecked`, the Jacobian, the
   banded solve (with the copies of the bands and of -F that it
   overwrites), one line-search trial at t = 1, `_make_report`, and the
   whole of one `newton_solve` iteration (MAX_NEWTON_ITERATIONS set to 1,
   tol 0).  Each stage is the median over 7 samples of the milliseconds
   per call, in a fresh interpreter per checkout with BLAS pinned to one
   thread, over STAGE_ROUNDS alternating (parent, change) rounds run by
   `bench_pair_kernel.call_rounds`; the summary holds the median over
   rounds.  The trial is the same code in both checkouts around each
   checkout's `_evaluate`; the bookkeeping inside `newton_solve` shows in
   the whole iteration.
2. perfbench/run.py --trace 0 for alternating (parent, change) pairs, run by
   `bench_pair_kernel.compare` on seeds from FIRST_SEED: CLI_PAIRS pairs on
   cli-solve, whose many small solves the banded solve's wrapper slowed,
   and OTHER_PAIRS pairs on verify and solve-large (where the solve at 1e5
   rows is bound by LAPACK, so `run_s` should not move).  The cli-solve
   `run_s` claim is summarised under "claim".
3. One perfbench/run.py --trace 1 cli-solve run on seed 1 per checkout,
   with every per-layer metric, and under "traced_counts" whether every
   `.calls` and `.rows` count and `solver.evals` repeat, next to the
   `solver.solve_banded.s` and `solver.newton_solve.self_s` of each side.

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
STAGE_GRIDS = (1_000, 10_000, 100_000)
STAGE_CONE = (4, 2, 0.95)
STAGE_ROUNDS = 6
SAMPLES = 7
# A sample repeats a call until it lasts at least this long.
SAMPLE_S = 5e-3
CLI_PAIRS = 10
OTHER_PAIRS = 6
FIRST_SEED = 1801
# Every per-layer metric.
TRACED = ("",)


def per_call_ms(call) -> float:
    """Median milliseconds per call over SAMPLES samples of `number` calls."""
    call()
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            call()
        if time.perf_counter() - start >= SAMPLE_S:
            break
        number *= 2
    samples = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        for _ in range(number):
            call()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples) * 1e3


def stage_times(src: str) -> dict:
    """Milliseconds per call of each Newton-step stage per grid, lnlab from src."""
    sys.path.insert(0, src)
    import numpy as np
    from lnlab import solver
    from lnlab.cones import ConeSpec, _f_and_grad_unchecked, cone_margin
    from lnlab.schouten import _eigenpair, _radial_stencil
    # The parent's solver binds scipy's solve_banded((l, u), ab, b, ...).
    scipy_solve = solver.solve_banded.__module__.startswith("scipy")
    n, k, tau = STAGE_CONE
    out = {}
    for grid in STAGE_GRIDS:
        spec = solver.ProblemSpec(cone=ConeSpec(n, k), tau=tau,
                                  domain=solver.Ball(1.0), delta=0.05, grid=grid)
        r, cone = spec.radii(), spec.solve_cone()
        init = solver.initial_profile(spec)
        u = init.u
        rows = solver._pde_rows(spec)
        du, d2u = _radial_stencil(u, r)
        lam = _eigenpair(u[rows], du[rows], d2u[rows], r[rows]).T
        F, margins, state = solver._evaluate(u, spec, r, cone)
        ab = solver._analytic_jacobian(u, spec, r, cone, state)

        def banded_solve():
            if scipy_solve:
                return solver.solve_banded((1, 1), ab.copy(), -F, overwrite_ab=True,
                                           overwrite_b=True)
            return solver.solve_banded(ab.copy(), -F)

        step = banded_solve()

        def trial():
            u_try = u + 1.0 * step
            if (u_try > 0.0).all():
                F_try, m_try, _ = solver._evaluate(u_try, spec, r, cone)
                if (m_try > solver.MARGIN_FLOOR).all():
                    return float(np.abs(F_try).max())
            return None

        def newton_iteration():
            solver.MAX_NEWTON_ITERATIONS = 1
            return solver.newton_solve(init, spec, solver.NewtonOptions(tol=0.0))

        stages = {
            "stencil": lambda: _radial_stencil(u, r),
            "eigenpair": lambda: _eigenpair(u[rows], du[rows], d2u[rows], r[rows]).T,
            "cone_margin": lambda: cone_margin(cone, lam),
            "f_and_grad": lambda: _f_and_grad_unchecked(cone, lam),
            "jacobian": lambda: solver._analytic_jacobian(u, spec, r, cone, state),
            "banded_solve": banded_solve,
            "line_search_trial": trial,
            "make_report": lambda: solver._make_report(u, spec, r, F, margins,
                                                       state, 1, True),
            "newton_solve_1_iteration": newton_iteration,
        }
        for name, call in stages.items():
            out[f"{name},grid={grid}"] = per_call_ms(call)
    return out


def run_stages(checkout: Path) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, __file__, "--stages", str(checkout / "src")]
    result = json.loads(subprocess.run(cmd, env=env, check=True, capture_output=True,
                                       text=True).stdout)
    print(f"{checkout.name} stages: banded_solve,grid=1000 "
          f"{result['banded_solve,grid=1000']:.4f} ms", file=sys.stderr, flush=True)
    return result


def traced_counts(traced_run: dict) -> dict:
    """Whether the traced cli-solve counts repeat, and the two times the
    change should lower."""
    p, c = (traced_run[side]["metrics"] for side in ("parent", "change"))
    counts = [name for name in p if name.endswith((".calls", ".rows"))]
    counts.append("solver.evals")
    return {"differing_counts": {name: {"parent": p[name], "change": c.get(name)}
                                 for name in counts if p[name] != c.get(name)},
            "all_repeat": all(p[name] == c.get(name) for name in counts),
            **{name: {"parent": p[name], "change": c[name],
                      "ratio": c[name] / p[name]}
               for name in ("solver.solve_banded.s", "solver.newton_solve.self_s")}}


def main():
    if sys.argv[1:2] == ["--stages"]:
        json.dump(stage_times(sys.argv[2]), sys.stdout)
        return
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    parent, change = Path(sys.argv[1]).resolve(), ROOT
    stages = call_rounds(parent, change, run_stages, STAGE_ROUNDS)
    perfbench = compare(parent, change, ["cli-solve"], CLI_PAIRS, FIRST_SEED)
    perfbench.update(compare(parent, change, ["verify", "solve-large"],
                             OTHER_PAIRS, FIRST_SEED))
    traced_cli = traced(parent, change, "cli-solve", TRACED)
    summary = {
        "claim": claim(perfbench, "cli-solve"),
        "stage_ms": stages,
        "perfbench": perfbench,
        "traced_cli_solve": traced_cli,
        "traced_counts": traced_counts(traced_cli),
    }
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
