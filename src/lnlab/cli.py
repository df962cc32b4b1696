"""Batch command-line front-end.

Subcommands:

  cone    cone diagnostics (mu+, ray membership, normalization) as JSON
  solve   tau continuation followed by the fixed delta sweep (DELTA_SCHEDULE,
          0.1 * 2^-i for i < 10, then 1e-4, times the outer radius); JSON
          report + CSV profiles
  verify  run the acceptance suite, one pass/fail line per criterion

--out names a file (solve: the stem of its files); missing directories are
made, and a path that cannot be written is a usage error.

All floating-point output is printed with 17 significant digits so reports
are byte-reproducible.  Exit codes: 0 success, 1 numerical failure, 2 invalid
configuration, a grid too large for the machine's memory among them.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from .acceptance import CRITERIA, RUNTIME_LIMITS, run_acceptance
from .cones import ConeSpec, contains_ray_e1, f_eval, mu_plus
from .errors import (ContinuationStallError, InadmissibleIterateError,
                     LnlabError, NoCertificateError)
from .solver import (RHS, Annulus, Ball, ProblemSpec, _delta_legs,
                     continuation_delta, continuation_tau)

import numpy as np


def _format17(obj) -> str:
    """JSON text with every float (np.float64 among them) rendered to 17
    significant digits."""
    if isinstance(obj, float):
        # json spells non-finite floats NaN, Infinity and -Infinity.
        return format(obj, ".17g") if math.isfinite(obj) else json.dumps(obj)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_format17(v)}"
                 for k, v in sorted(obj.items()))
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_format17(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text: str, out: str | None):
    """Write text to the file out, making its directory, or else to stdout
    ending in a newline.  A path that cannot be written is a usage error."""
    if out:
        path = Path(out)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        except OSError as exc:
            raise LnlabError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lnlab",
        description="Radial sigma-k Yamabe-type laboratory: cone diagnostics, "
                    "continuation solves, acceptance verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cone = sub.add_parser("cone", help="cone diagnostics table")
    p_cone.add_argument("--n", type=int, required=True, help="dimension (>= 3)")
    p_cone.add_argument("--k", type=int, required=True, help="cone order")
    p_cone.add_argument("--tau", type=float, default=1.0,
                        help="trace deformation in [0, 1] (default %(default)s)")
    _add_common(p_cone)

    p_solve = sub.add_parser("solve", help="tau continuation + delta sweep")
    p_solve.add_argument("--n", type=int, default=3,
                         help="dimension (default %(default)s)")
    p_solve.add_argument("--k", type=int, default=1,
                         help="cone order (default %(default)s)")
    p_solve.add_argument("--tau", type=float, default=0.9,
                         help="target deformation in [0, 1] "
                              "(default %(default)s)")
    p_solve.add_argument("--domain", choices=("ball", "annulus"), default="ball",
                         help="radial domain (default %(default)s)")
    p_solve.add_argument("--inner", type=float, default=None,
                         help="annulus inner radius (annulus only)")
    p_solve.add_argument("--outer", type=float, default=1.0,
                         help="outer radius: the ball is [0, outer], the "
                              "annulus [inner, outer] (default %(default)s)")
    p_solve.add_argument("--grid", type=int, default=1000,
                         help="number of radial intervals (default %(default)s)")
    _add_common(p_solve)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--only", action="append", default=None,
                          metavar="NAME",
                          help=f"run only the named criteria (repeatable); "
                               f"choices: {', '.join(CRITERIA)}")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for randomized property sweeps "
                               "(default %(default)s)")
    _add_common(p_verify)
    return parser


def cmd_cone(args) -> int:
    cone = ConeSpec(args.n, args.k, args.tau)
    row = {
        "n": cone.n,
        "k": cone.k,
        "tau": float(args.tau),
        "mu_plus": mu_plus(cone),
        "contains_e1": contains_ray_e1(cone),
        "f_at_e": float(f_eval(cone, np.ones(cone.n))),
        "normalization": cone.normalization,
    }
    _emit(_format17(row), args.out)
    return 0


def _solve_spec(args) -> ProblemSpec:
    if args.domain == "ball":
        if args.inner is not None:
            raise LnlabError("--inner applies to annulus domains only")
        domain = Ball(args.outer)
    else:
        if args.inner is None:
            raise LnlabError("annulus domains need --inner")
        domain = Annulus(args.inner, args.outer)
    return ProblemSpec(
        cone=ConeSpec(args.n, args.k),
        tau=args.tau,
        domain=domain,
        delta=_delta_legs(domain)[0],
        grid=args.grid,
    )


def cmd_solve(args) -> int:
    spec = _solve_spec(args)

    head = continuation_tau(spec)
    sweep = continuation_delta(spec)

    summary = {
        "spec": {
            "n": spec.cone.n, "k": spec.cone.k, "tau": spec.tau,
            "domain": ("ball" if isinstance(spec.domain, Ball) else "annulus"),
            "grid": spec.grid, "rhs": RHS,
            "delta_schedule": _delta_legs(spec.domain),
        },
        "tau_continuation": head.to_dict(),
        "delta_sweep": {
            "deltas": [float(d) for d in sweep.deltas],
            "converged": sweep.ok,
            "failed_delta": sweep.failed_delta,
            "monotonicity_max_violation": sweep.monotonicity_max_violation,
            "legs": [rep.to_dict() for rep in sweep.reports],
        },
    }
    if sweep.reports:
        summary["final"] = sweep.reports[-1].to_dict()

    text = _format17(summary) + "\n"
    if args.out:
        out = Path(args.out)
        stem = out.with_suffix("") if out.suffix else out
        _emit(text, f"{stem}.json")
        for i, rep in enumerate(sweep.reports):
            _emit(rep.to_csv(), f"{stem}_leg{i:02d}.csv")
    else:
        _emit(text, None)
    if not sweep.ok:
        print(f"numerical failure: delta sweep stopped at delta = {sweep.failed_delta}: "
              f"{sweep.failure}", file=sys.stderr)
    return 0 if sweep.ok else 1


def cmd_verify(args) -> int:
    only = None
    if args.only is not None:
        only = [t.strip() for item in args.only for t in item.split(",")
                if t.strip()]
    results = run_acceptance(only=only, seed=args.seed)
    for res in results:
        print(res.line())
    all_pass = all(r.passed for r in results)
    over_budget = [r.name for r in results if r.seconds > RUNTIME_LIMITS[r.name]]
    if over_budget:
        print("over runtime budget: " + ", ".join(over_budget))
    if args.out:
        payload = [{"name": r.name, "passed": r.passed, "measured": r.measured,
                    "expected": r.expected, "detail": r.detail}
                   for r in results]
        _emit(_format17(payload) + "\n", args.out)
    print("acceptance: " + ("PASS" if all_pass else "FAIL")
          + f" ({sum(r.passed for r in results)}/{len(results)})")
    return 0 if all_pass and not over_budget else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"cone": cmd_cone, "solve": cmd_solve, "verify": cmd_verify}
    try:
        return handler[args.command](args)
    except (ContinuationStallError, InadmissibleIterateError,
            NoCertificateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except LnlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: MemoryError: {exc or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
