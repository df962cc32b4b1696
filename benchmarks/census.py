"""A robustness census: of a fixed sample of accepted problem specs, how many
converge, and how the others fail.

    python3 benchmarks/census.py [CHECKOUT]

CHECKOUT is an lnlab checkout (this one by default).  `sample` draws SPECS
specs from SEED over the box: n = 3..12, any k <= n, tau = 0, U[0, 1) or
1 - 10^-U(1, 4) (a third each), a ball or an annulus (half each), outer
radius b = 10^U(-3, 3), inner radius a with a/b = 10^U(-3, log10 0.99),
delta/b = 10^U(-6, 1) and grid 8..400.  One fresh interpreter, with
CHECKOUT's src/ first on sys.path, runs continuation_tau on each spec with
warnings as errors, and stops a spec after SPEC_SECONDS (see `run_specs`).

Printed: the count per outcome class (converged, or the cause the error
names, see `outcome`), the SLOWEST slowest specs, and every foreign
exception or warning with its spec.  Exits 1 if there was one.
"""

import json
import signal
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
# About a minute on one core: a few specs run tau step halvings for
# minutes, so each is stopped after SPEC_SECONDS.
SPECS = 120
SPEC_SECONDS = 10
SLOWEST = 5
# The causes refusals name, in the words of this and earlier checkouts.  The
# first one a message holds is its class; a start problem's Newton stop is
# classed as the start problem's.
CAUSES = (
    "the tau = 0 start problem did not converge",
    "rounds away against delta",
    "does not resolve the inner radius",
    "not finite and positive",
    "the torsion start is not positive",
    "out of float range",
    "the step left the cone",
    "line search found no admissible descent step",
    "iteration limit reached",
)
# Runs run_specs in the census module at argv[1] on the lnlab under argv[2].
PROBE = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import census; "
         "json.dump(census.run_specs(json.load(sys.stdin)), sys.stdout)")


class OverTime(Exception):
    """Raised in a spec that has run for SPEC_SECONDS."""


def _over_time(signum, frame):
    raise OverTime


def sample(count: int = SPECS) -> list:
    """count spec dicts drawn from SEED over the box of the module doc."""
    rng = np.random.default_rng(SEED)
    specs = []
    for _ in range(count):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, n + 1))
        kind = int(rng.integers(3))
        tau = (0.0, float(rng.uniform(0.0, 1.0)),
               1.0 - 10.0**-float(rng.uniform(1.0, 4.0)))[kind]
        outer = 10.0**float(rng.uniform(-3.0, 3.0))
        inner = outer * 10.0**float(rng.uniform(-3.0, np.log10(0.99)))
        ball = bool(rng.integers(2))
        specs.append({"n": n, "k": k, "tau": tau, "domain": "ball" if ball else "annulus",
                      "inner": None if ball else inner, "outer": outer,
                      "delta": outer * 10.0**float(rng.uniform(-6.0, 1.0)),
                      "grid": int(rng.integers(8, 401))})
    return specs


def outcome(err: BaseException) -> str | None:
    """The class of a refusal: its type and the first of CAUSES its message
    holds, else its message; None for a foreign exception or a warning."""
    from lnlab.errors import LnlabError
    if isinstance(err, OverTime):
        return f"stopped after {SPEC_SECONDS} s"
    if not isinstance(err, LnlabError):
        return None
    message = str(err)
    return f"{type(err).__name__}: " + next(
        (cause for cause in CAUSES if cause in message), message)


def run_specs(specs: list) -> list:
    """Per spec, {"outcome", "seconds"} from continuation_tau on the lnlab
    first on sys.path, with warnings as errors, stopped after SPEC_SECONDS
    by SIGALRM; a foreign exception or a warning has outcome "foreign" and
    its "error"."""
    from lnlab import Annulus, Ball, ConeSpec, ProblemSpec, continuation_tau
    results = []
    handler = signal.signal(signal.SIGALRM, _over_time)
    for spec in specs:
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            signal.setitimer(signal.ITIMER_REAL, SPEC_SECONDS)
            try:
                domain = (Ball(spec["outer"]) if spec["domain"] == "ball"
                          else Annulus(spec["inner"], spec["outer"]))
                report = continuation_tau(ProblemSpec(
                    ConeSpec(spec["n"], spec["k"]), spec["tau"], domain,
                    spec["delta"], spec["grid"]))
                result = {"outcome": "converged" if report.converged
                          else "not converged"}
            except Exception as err:            # noqa: BLE001 - the census counts them
                cls = outcome(err)
                result = ({"outcome": cls} if cls else
                          {"outcome": "foreign", "error": f"{type(err).__name__}: {err}"})
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        result["seconds"] = time.perf_counter() - start
        results.append(result)
    signal.signal(signal.SIGALRM, handler)
    return results


def census(checkout: Path, specs: list) -> list:
    """run_specs on checkout's lnlab, in a fresh interpreter."""
    cmd = [sys.executable, "-c", PROBE, str(Path(__file__).resolve().parent),
           str(checkout / "src")]
    return json.loads(subprocess.run(cmd, input=json.dumps(specs), check=True,
                                     capture_output=True, text=True).stdout)


def report(specs: list, results: list) -> tuple:
    """The printed census, as lines, and whether it found anything foreign."""
    counts = Counter(result["outcome"] for result in results)
    lines = [f"{len(specs)} specs in {sum(r['seconds'] for r in results):.1f} s"]
    lines += [f"  {count:4d}  {name}" for name, count in counts.most_common()]
    lines.append("slowest:")
    ranked = sorted(zip(results, specs), key=lambda pair: -pair[0]["seconds"])
    lines += [f"  {result['seconds']:7.2f} s  {result['outcome']}  {json.dumps(spec)}"
              for result, spec in ranked[:SLOWEST]]
    foreign = [(result, spec) for result, spec in zip(results, specs)
               if result["outcome"] == "foreign"]
    lines.append(f"foreign exceptions and warnings: {len(foreign)}")
    lines += [f"  {result['error']}  {json.dumps(spec)}" for result, spec in foreign]
    return lines, bool(foreign)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    checkout = Path(argv[0]).resolve() if argv else ROOT
    if not (checkout / "src" / "lnlab").is_dir():
        print(f"{checkout} is not an lnlab checkout: no src/lnlab", file=sys.stderr)
        return 2
    specs = sample()
    lines, foreign = report(specs, census(checkout, specs))
    print(f"census of {checkout}: " + "\n".join(lines))
    return 1 if foreign else 0


if __name__ == "__main__":
    sys.exit(main())
