"""Per-layer spans recorded from outside lnlab.

Tracer.installed() replaces each traced function at every binding of it: the
module attribute where it is defined, every lnlab module that imported it by
name (`from .cones import cone_margin` copies the name into lnlab.solver,
lnlab.admissible and lnlab.acceptance), class attributes for methods, and the
entries of lnlab.acceptance.CRITERIA.  Leaving the context puts every
original object back.

Each call records a span [name, start, end, parent] in memory; Tracer.op()
opens the root span of one op and folds its spans into per-layer totals when
the op ends.  A span's self time is its duration minus that of its children.
check_spans() verifies the nesting of each op's spans: a span recorded under
the wrong parent, or spans that overlap, fail it.
"""

import contextlib
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from workloads import CRITERIA

# (span name, defining module, attribute path).  The span name is
# "<module>.<function>"; metric names append a stat.
LAYERS = (
    ("solver.continuation_delta", "lnlab.solver", "continuation_delta"),
    ("solver.continuation_tau", "lnlab.solver", "continuation_tau"),
    ("solver.newton_solve", "lnlab.solver", "newton_solve"),
    ("solver.initial_profile", "lnlab.solver", "initial_profile"),
    ("solver.solve_banded", "lnlab.solver", "solve_banded"),
    ("solver.to_csv", "lnlab.solver", "SolveReport.to_csv"),
    ("cones.cone_margin", "lnlab.cones", "cone_margin"),
    ("cones.f_and_grad", "lnlab.cones", "_f_and_grad_unchecked"),
    ("cones.sigma_all", "lnlab.cones", "sigma_all"),
    ("cones.tau_deform", "lnlab.cones", "tau_deform"),
    ("cones.f_eval", "lnlab.cones", "f_eval"),
    ("cones.grad_f", "lnlab.cones", "grad_f"),
    ("cones.mu_plus", "lnlab.cones", "mu_plus"),
    ("schouten.RadialProfile", "lnlab.schouten", "RadialProfile.__post_init__"),
    ("schouten.spectrum_field", "lnlab.schouten", "spectrum_field"),
    ("schouten.radial_schouten_spectrum", "lnlab.schouten",
     "radial_schouten_spectrum"),
    ("schouten.rescaled_metric_spectrum_bound", "lnlab.schouten",
     "rescaled_metric_spectrum_bound"),
    ("admissible.find_N", "lnlab.admissible", "find_N"),
    ("admissible.verify_admissible", "lnlab.admissible", "verify_admissible"),
    ("cli.main", "lnlab.cli", "main"),
)

# Positional index of the spectrum argument; its leading shape is the number
# of spectra ("rows") the call processes.
ROWS_ARG = {"cones.cone_margin": 1, "cones.f_and_grad": 1, "cones.sigma_all": 0}

# Bindings with a count of their own: the solver's calls into cone_margin are
# its operator evaluations, line-search trials included.
BINDING_COUNTS = {("lnlab.solver", "cone_margin"): "solver.evals"}

ROOT = "op"

# Per-layer metrics in report order: (span name, stats).
STATS = (
    ("solver.continuation_delta", ("calls", "s")),
    ("solver.continuation_tau", ("calls", "s")),
    ("solver.newton_solve", ("calls", "s", "self_s", "iters", "failed")),
    ("solver.initial_profile", ("calls", "s")),
    ("solver.solve_banded", ("calls", "s")),
    ("solver.to_csv", ("calls", "s")),
    ("cones.cone_margin", ("calls", "s", "self_s", "rows")),
    ("cones.f_and_grad", ("calls", "s", "self_s", "rows")),
    ("cones.sigma_all", ("calls", "s", "rows")),
    ("cones.tau_deform", ("calls", "s")),
    ("cones.f_eval", ("calls", "s", "self_s")),
    ("cones.grad_f", ("calls", "s")),
    ("cones.mu_plus", ("calls", "s", "self_s")),
    ("schouten.RadialProfile", ("calls", "s")),
    ("schouten.spectrum_field", ("calls", "s")),
    ("schouten.radial_schouten_spectrum", ("calls", "s")),
    ("schouten.rescaled_metric_spectrum_bound", ("calls", "s")),
    ("admissible.find_N", ("calls", "s", "scan_steps")),
    ("admissible.verify_admissible", ("calls", "s")),
    ("cli.main", ("calls", "s", "self_s")),
)


def _rows(lam) -> int:
    return math.prod(np.shape(lam)[:-1])


def _newton_outcome(counts, report):
    counts["solver.newton_solve.iters"] += report.newton_iterations
    counts["solver.newton_solve.failed"] += not report.converged


def check_spans(spans):
    """(nesting errors, lnlab seconds, child seconds per span) of one op.

    Spans are in the order their calls started.  An error is a span that
    ends before it starts, lies outside its parent's interval, or overlaps
    the sibling before it; any of these makes self times wrong.  The lnlab
    seconds are the summed self times of every span but the root; run.py
    compares them with the op time it measures on its own.
    """
    child = [0.0] * len(spans)
    last_end = {}
    errors = 0
    for name, start, end, parent in spans:
        errors += end < start
        if parent >= 0:
            child[parent] += end - start
            errors += not spans[parent][1] <= start <= end <= spans[parent][2]
            errors += start < last_end.get(parent, start)
            last_end[parent] = end
    lnlab_s = sum(end - start - child[i]
                  for i, (_, start, end, parent) in enumerate(spans)
                  if parent >= 0)
    return errors, lnlab_s, child


def _resolve(obj, path):
    owner = obj
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps lnlab's layers and aggregates the spans of traced ops."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.totals = defaultdict(Counter)
        self.op_checks = []   # (nesting errors, lnlab seconds) per op
        self._patches = []

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of every layer; restore them all on exit."""
        try:
            self._install()
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)
            self._patches.clear()

    def wrapped_bindings(self):
        """(owner, attr, original) for every binding currently replaced."""
        return list(self._patches)

    def _install(self):
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "lnlab" or name.startswith("lnlab.")}
        for span, module, path in LAYERS:
            owner, attr = _resolve(modules[module], path)
            original = getattr(owner, attr)
            if owner is modules[module]:
                self._wrap_module_bindings(modules, span, original)
            else:
                self._patch(owner, attr, self._wrapper(span, original))
        criteria = modules["lnlab.acceptance"].CRITERIA
        for name in CRITERIA:
            original = criteria[name]
            span = f"acceptance.{name}"
            self._wrap_module_bindings(modules, span, original)
            self._patch(criteria, name, self._wrapper(span, original))

    def _wrap_module_bindings(self, modules, span, original):
        for mod_name, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    count = BINDING_COUNTS.get((mod_name, attr))
                    self._patch(mod, attr, self._wrapper(span, original, count))

    def _patch(self, owner, attr, wrapper):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _wrapper(self, span, fn, count=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        rows_arg = ROWS_ARG.get(span)
        rows_key = f"{span}.rows"
        outcome = _newton_outcome if span == "solver.newton_solve" else None

        def traced(*args, **kwargs):
            if rows_arg is not None:
                counts[rows_key] += _rows(args[rows_arg])
            if count:
                counts[count] += 1
            record = [span, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if outcome:
                    counts["solver.newton_solve.failed"] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if outcome:
                outcome(counts, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    # -- recording --------------------------------------------------------

    @contextlib.contextmanager
    def op(self):
        """Root span of one op; its spans are aggregated when it ends."""
        record = [ROOT, time.perf_counter(), 0.0, -1]
        self.spans.append(record)
        self.stack.append(0)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()
            self._aggregate()
            self.spans.clear()

    def _aggregate(self):
        spans = self.spans
        errors, lnlab_s, child = check_spans(spans)
        self.op_checks.append((errors, lnlab_s))
        for i, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            total = self.totals[name]
            total["calls"] += 1
            total["self_s"] += duration - child[i]
            # Inclusive time counts only the outermost span of a name, so a
            # layer re-entered through itself is not counted twice.
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total["s"] += duration
            if (name == "schouten.rescaled_metric_spectrum_bound"
                    and parent >= 0 and spans[parent][0] == "admissible.find_N"):
                self.totals["admissible.find_N"]["scan_steps"] += 1

    # -- reporting --------------------------------------------------------

    def metrics(self) -> dict:
        """{metric name: {"value", "unit"}} for every per-layer metric."""
        out = {}
        for span, stats in STATS:
            for stat in stats:
                key = f"{span}.{stat}"
                if stat in ("iters", "failed", "rows"):
                    value = self.counts[key]
                else:
                    value = self.totals[span][stat]
                out[key] = {"value": value,
                            "unit": "s" if stat in ("s", "self_s") else "count"}
        evals = self.counts["solver.evals"]
        iters = self.counts["solver.newton_solve.iters"]
        out["solver.evals"] = {"value": evals, "unit": "count"}
        out["solver.evals_per_iter"] = {"value": evals / iters if iters else 0.0,
                                        "unit": "evals/iter"}
        for name in CRITERIA:
            out[f"acceptance.{name}.s"] = {
                "value": self.totals[f"acceptance.{name}"]["s"], "unit": "s"}
        return out
