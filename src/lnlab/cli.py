"""Batch command-line front-end.

Subcommands:

  cone    cone diagnostics (mu+, ray membership, normalization) as JSON
  solve   tau continuation followed by a delta sweep; JSON report + CSV profiles
  verify  run the acceptance suite, one pass/fail line per criterion

All floating-point output is printed with 17 significant digits so reports
are byte-reproducible.  Exit codes: 0 success, 1 numerical failure, 2 invalid
configuration.  A flat JSON config file may supply any flag value; explicit
flags override the file.
"""

import argparse
import json
import sys
from pathlib import Path

from .acceptance import CRITERIA, RUNTIME_LIMITS, run_acceptance
from .cones import ConeSpec, contains_ray_e1, f_eval, mu_plus
from .errors import (ContinuationStallError, InadmissibleIterateError,
                     LnlabError, NoCertificateError)
from .solver import (Annulus, Ball, ProblemSpec, continuation_delta,
                     continuation_tau, default_delta_schedule)

import numpy as np


def _format17(obj) -> str:
    """JSON text with every float rendered to 17 significant digits."""
    if isinstance(obj, float):
        return format(obj, ".17g")
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
    if isinstance(obj, np.ndarray):
        return _format17(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return format(float(obj), ".17g")
    if isinstance(obj, (np.integer,)):
        return json.dumps(int(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_schedule(text):
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad schedule {text!r}: "
                                         "expected comma-separated floats")
    if not values:
        raise argparse.ArgumentTypeError("schedule must be non-empty")
    return values


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat JSON file supplying flag defaults")
    p.add_argument("--out", help="output path (default: stdout)")


def _config_value(action: argparse.Action, value):
    """A config value read as its flag would read it; raises if refused.

    A number flag takes only a JSON number its type keeps unchanged (100.5
    and "100" are refused for an integer); other flags read the value as
    text, a list as comma-separated text.
    """
    if action.type in (int, float):
        if isinstance(value, (bool, str)) or action.type(value) != value:
            raise ValueError(f"expected {action.type.__name__}, got {value!r}")
    else:
        value = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    if action.type is not None:
        value = action.type(value)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{value!r} is not one of {', '.join(action.choices)}")
    return [value] if isinstance(action, argparse._AppendAction) else value


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Fill unset flags from the config file; explicit flags win."""
    if not getattr(args, "config", None):
        return args
    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {args.config}: {exc}")
    if not isinstance(raw, dict):
        parser.error(f"config {args.config} must be a flat JSON object")
    commands = next(a for a in parser._actions if a.dest == "command")
    flags = {a.dest: a for a in commands.choices[args.command]._actions}
    for key, value in raw.items():
        action = flags.get(key.replace("-", "_"))
        if action is None or not hasattr(args, action.dest):
            parser.error(f"config key {key!r} does not match any flag")
        try:
            value = _config_value(action, value)
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"config key {key!r}: {exc}")
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, value)
    return args


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lnlab",
        description="Radial sigma-k Yamabe-type laboratory: cone diagnostics, "
                    "continuation solves, acceptance verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cone = sub.add_parser("cone", help="cone diagnostics table")
    p_cone.add_argument("--n", type=int, default=None, help="dimension (>= 3)")
    p_cone.add_argument("--k", type=int, default=None, help="cone order")
    p_cone.add_argument("--tau", type=float, default=None,
                        help="trace deformation in [0, 1] (default 1)")
    _add_common(p_cone)

    p_solve = sub.add_parser("solve", help="tau continuation + delta sweep")
    p_solve.add_argument("--n", type=int, default=None)
    p_solve.add_argument("--k", type=int, default=None)
    p_solve.add_argument("--tau", type=float, default=None,
                         help="target deformation, must be < 1 (default 0.9)")
    p_solve.add_argument("--domain", choices=("ball", "annulus"), default=None)
    p_solve.add_argument("--radius", type=float, default=None,
                         help="ball radius (default 1)")
    p_solve.add_argument("--inner", type=float, default=None,
                         help="annulus inner radius")
    p_solve.add_argument("--outer", type=float, default=None,
                         help="annulus outer radius")
    p_solve.add_argument("--grid", type=int, default=None,
                         help="number of radial intervals (default 1000)")
    p_solve.add_argument("--delta-schedule", type=_parse_schedule, default=None,
                         help="comma-separated decreasing boundary data "
                              "(default geometric 1e-1 .. 1e-4)")
    p_solve.add_argument("--tau-schedule", type=_parse_schedule, default=None,
                         help="comma-separated increasing tau values ending at --tau")
    p_solve.add_argument("--rhs", type=float, default=None,
                         help="constant positive right-hand side (default 0.5)")
    _add_common(p_solve)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--only", action="append", default=None,
                          metavar="NAME",
                          help=f"run only the named criteria (repeatable); "
                               f"choices: {', '.join(CRITERIA)}")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed for randomized property sweeps (default 0)")
    _add_common(p_verify)
    return parser


def cmd_cone(args) -> int:
    if args.n is None or args.k is None:
        raise LnlabError("cone requires --n and --k (flags or config file)")
    tau = 1.0 if args.tau is None else args.tau
    cone = ConeSpec(args.n, args.k, tau)
    row = {
        "n": cone.n,
        "k": cone.k,
        "tau": float(tau),
        "mu_plus": mu_plus(cone),
        "contains_e1": contains_ray_e1(cone),
        "f_at_e": float(f_eval(cone, np.ones(cone.n))),
        "normalization": cone.normalization,
    }
    _emit(_format17(row), args.out)
    return 0


def _solve_spec(args) -> ProblemSpec:
    n = 3 if args.n is None else args.n
    k = 1 if args.k is None else args.k
    tau = 0.9 if args.tau is None else args.tau
    domain_kind = args.domain or "ball"
    if domain_kind == "ball":
        domain = Ball(1.0 if args.radius is None else args.radius)
    else:
        if args.inner is None or args.outer is None:
            raise LnlabError("annulus domains need --inner and --outer")
        domain = Annulus(args.inner, args.outer)
    schedule = args.delta_schedule or default_delta_schedule()
    return ProblemSpec(
        cone=ConeSpec(n, k),
        tau=tau,
        domain=domain,
        delta=schedule[0],
        grid=1000 if args.grid is None else args.grid,
        rhs=0.5 if args.rhs is None else args.rhs,
    )


def cmd_solve(args) -> int:
    spec = _solve_spec(args)
    schedule = args.delta_schedule or default_delta_schedule()

    head = continuation_tau(spec, tau_schedule=args.tau_schedule)
    sweep = continuation_delta(spec, delta_schedule=schedule)

    summary = {
        "spec": {
            "n": spec.cone.n, "k": spec.cone.k, "tau": spec.tau,
            "domain": ("ball" if isinstance(spec.domain, Ball) else "annulus"),
            "grid": spec.grid, "rhs": float(spec.rhs),
            "delta_schedule": [float(d) for d in schedule],
        },
        "tau_continuation": head.to_dict(include_profile=False),
        "delta_sweep": {
            "deltas": [float(d) for d in sweep.deltas],
            "converged": sweep.ok,
            "failed_delta": sweep.failed_delta,
            "monotonicity_max_violation": sweep.monotonicity_max_violation,
            "interior_sup_diffs": sweep.interior_sup_diffs,
            "legs": [rep.to_dict(include_profile=False)
                     for rep in sweep.reports],
        },
    }
    if sweep.reports:
        summary["final"] = sweep.reports[-1].to_dict(include_profile=False)

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        stem = out.with_suffix("") if out.suffix else out
        Path(f"{stem}.json").write_text(_format17(summary) + "\n")
        for i, rep in enumerate(sweep.reports):
            Path(f"{stem}_leg{i:02d}.csv").write_text(rep.to_csv())
    else:
        sys.stdout.write(_format17(summary) + "\n")
    return 0 if head.converged and sweep.ok else 1


def cmd_verify(args) -> int:
    only = None
    if args.only:
        only = []
        for item in args.only:
            only.extend(t.strip() for t in item.split(",") if t.strip())
        for name in only:
            if name not in CRITERIA:
                raise LnlabError(f"unknown criterion {name!r}; choices: "
                                 + ", ".join(CRITERIA))
    seed = 0 if args.seed is None else args.seed
    results = run_acceptance(only=only, seed=seed)
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
        Path(args.out).write_text(_format17(payload) + "\n")
    print("acceptance: " + ("PASS" if all_pass else "FAIL")
          + f" ({sum(r.passed for r in results)}/{len(results)})")
    return 0 if all_pass and not over_budget else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args = _apply_config(args, parser)
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


if __name__ == "__main__":
    sys.exit(main())
