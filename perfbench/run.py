"""lnlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 30 --trace 0

Run from the root of an lnlab checkout; lnlab is imported from its src/.
With --trace 0 the run reports the end-to-end metrics (setup_s, run_s,
op_s_p50, ok_frac, peak_rss_mb); times are scaled to a nominal host speed,
see REFERENCE_S.  With --trace 1 it runs the first whole passes of the same
op list (at least one, about half of the list) twice per op, untraced then
traced, and reports the per-layer metrics plus the tracing overhead.  Every
op's output is checked against perfbench/oracle.py.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the provenance.  A fuller record
(per-op times and oracle details) goes to .perfbench_run/results/.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy loads.  The pin is the
# runner's, not an lnlab setting.
BLAS_PIN = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

WORK = workloads.ROOT / ".perfbench_run"
SETUP_PROBES = 5

# The shared host this benchmark was defined on switches between fast and
# slow spells that last seconds and differ by up to 1.5x.  A fixed pure-Python
# loop, timed before and after every op and set-up probe, tracks that speed
# (it halves the run-to-run spread of op times, where numpy-bound loops do
# not).  End-to-end times are reported as wall seconds scaled to the loop's
# nominal time, REFERENCE_S, measured on the 2-vCPU Xeon machine the
# benchmark was defined on; the raw wall times go to the provenance line.
REFERENCE_S = 0.006


def reference_seconds() -> float:
    """Time of the reference loop's second pass; the first pass absorbs what
    the preceding op left in caches and allocator state."""
    for _ in range(2):
        start = time.perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i
    return time.perf_counter() - start


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_setup(args) -> float:
    """Wall seconds from spawning a fresh interpreter to its first op being
    ready: interpreter start, imports and input generation."""
    cmd = [sys.executable, str(workloads.ROOT / "perfbench" / "setup_probe.py"),
           args.workload, str(args.seed), str(args.seconds)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed: {line!r}")
    return ready - start


def execute(lnlab, workload, op, workdir, tracer=None):
    """Run and check one op: (seconds, ok, detail)."""
    traced = tracer.installed() if tracer else contextlib.nullcontext()
    root = tracer.op() if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with traced, root:
            start = time.perf_counter()
            output = workloads.run_op(lnlab, workload, op, workdir)
            seconds = time.perf_counter() - start
    except Exception:
        workloads.clear(workdir)
        return time.perf_counter() - start, False, traceback.format_exc(limit=3)
    ok, detail = workloads.check_op(workload, op, output, workdir)
    return seconds, ok, detail


def provenance(lnlab, args, ops):
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    tols = ({op["domain"]: op["tol"] for op in ops if "tol" in op}
            or {"lnlab default": getattr(lnlab.solver, "NEWTON_TOL", None)})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "lnlab": lnlab.__version__, "blas_pin": BLAS_PIN,
        "newton_tol": tols,
    }


def _median(values):
    """Median of the successful ops' times; 0 when none succeeded (the
    failure count then rejects the run)."""
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    lnlab = workloads.load_lnlab()
    ops = workloads.make_ops(args.workload, args.seed, args.seconds)
    workdir = WORK / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(lnlab, args, ops, workdir)
    finally:
        workloads.clear(workdir)
        workdir.rmdir()


def _run(lnlab, args, ops, workdir):
    workloads.warm_up(lnlab, args.workload, workdir)
    prov = provenance(lnlab, args, ops)
    if args.trace:
        records, metrics = _traced(lnlab, args, ops, workdir)
    else:
        records, metrics, prov["raw_wall"], prov["setup_samples"] = _timed(
            lnlab, args, ops, workdir)
    prov["ops"] = len(records)
    prov["op_samples"] = sum(r["ok"] for r in records)
    failed = len(records) - prov["op_samples"]
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}

    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(
        {"provenance": prov, "result": result, "ops": records},
        indent=1))
    for r in records:
        if not r["ok"]:
            print(f"op failed: {r['op']}: {r['detail']}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return 0


def _timed(lnlab, args, ops, workdir):
    """Untraced run: end-to-end metrics, in seconds scaled by the reference
    loop timed on either side of each op and probe."""
    # Probes are spread over the run so that their median, like the op
    # times, covers the host's slow and fast spells.
    probe_at = [i * len(ops) // SETUP_PROBES for i in range(SETUP_PROBES)]
    records, setup, raw_setup = [], [], []
    ref = reference_seconds()
    for i, op in enumerate(ops):
        for _ in range(probe_at.count(i)):
            raw_setup.append(probe_setup(args))
            after = reference_seconds()
            setup.append(raw_setup[-1] * 2 * REFERENCE_S / (ref + after))
            ref = after
        seconds, ok, detail = execute(lnlab, args.workload, op, workdir)
        after = reference_seconds()
        records.append({"op": op, "seconds": seconds, "ok": ok,
                        "detail": detail, "reference_s": (ref + after) / 2,
                        "scaled_s": seconds * 2 * REFERENCE_S / (ref + after)})
        ref = after
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok_records = [r for r in records if r["ok"]]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "run_s": {"value": sum(r["scaled_s"] for r in records), "unit": "s"},
        "op_s_p50": {"value": _median([r["scaled_s"] for r in ok_records]),
                     "unit": "s"},
        "ok_frac": {"value": len(ok_records) / len(records), "unit": "frac"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    raw_wall = {
        "setup_s": statistics.median(raw_setup),
        "run_s": sum(r["seconds"] for r in records),
        "op_s_p50": _median([r["seconds"] for r in ok_records]),
        "reference_s_p50": statistics.median(r["reference_s"] for r in records),
    }
    return records, metrics, raw_wall, setup


def _traced(lnlab, args, ops, workdir):
    """Traced run over the first whole passes of the op list, at least one
    and about half of them, each op untraced and then traced: per-layer
    metrics plus the tracing overhead, in wall time.  A traced op also fails
    when its spans are badly nested or do not account for the op's time."""
    import tracer as tracing
    tracer = tracing.Tracer()
    size = workloads.pass_size(args.workload)
    records = []
    for op in ops[:max(size, len(ops) // 2 // size * size)]:
        for mode in ("untraced", "traced"):
            seconds, ok, detail = execute(lnlab, args.workload, op, workdir,
                                          tracer if mode == "traced" else None)
            record = {"op": op, "mode": mode, "seconds": seconds, "ok": ok,
                      "detail": detail}
            if mode == "traced":
                errors, lnlab_s = tracer.op_checks[-1]
                record.update(nesting_errors=errors, lnlab_s=lnlab_s)
                if errors or not 0.9 * seconds <= lnlab_s <= seconds:
                    record.update(ok=False, detail=(
                        f"tracer: {errors} nesting errors, {lnlab_s:.4g} s "
                        f"in lnlab spans of a {seconds:.4g} s op"))
            records.append(record)
    metrics = tracer.metrics()
    p50 = {mode: _median([r["seconds"] for r in records
                          if r["mode"] == mode and r["ok"]])
           for mode in ("untraced", "traced")}
    metrics["trace.op_s_p50"] = {"value": p50["traced"], "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": p50["traced"] - p50["untraced"], "unit": "s"}
    return records, metrics


if __name__ == "__main__":
    sys.exit(main())
