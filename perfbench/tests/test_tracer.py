import sys
import time
from dataclasses import replace

import pytest

import tracer as tracing
import workloads

import lnlab
import lnlab.acceptance
import lnlab.cli
import lnlab.solver
from lnlab.schouten import RadialProfile
from lnlab.solver import SolveReport


def lnlab_bindings():
    """Every (module, attribute, object) binding in the lnlab package."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "lnlab" or name.startswith("lnlab."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    return out


def test_installed_wraps_every_binding_and_restores_it(tmp_path):
    before = lnlab_bindings()
    criteria = dict(lnlab.acceptance.CRITERIA)
    methods = (SolveReport.to_csv, RadialProfile.__post_init__)
    tracer = tracing.Tracer()
    with tracer.installed():
        patched = {(getattr(owner, "__name__", None), attr)
                   for owner, attr, _ in tracer.wrapped_bindings()
                   if not isinstance(owner, dict)}
        # Names copied by `from .x import y` are wrapped where they landed.
        for binding in [("lnlab.solver", "cone_margin"),
                        ("lnlab.admissible", "cone_margin"),
                        ("lnlab.acceptance", "cone_margin"),
                        ("lnlab.cli", "continuation_tau"),
                        ("lnlab.acceptance", "continuation_delta"),
                        ("lnlab.solver", "solve_banded"),
                        ("lnlab", "newton_solve")]:
            assert binding in patched
            assert getattr(sys.modules[binding[0]], binding[1]) is not before[binding]
        assert lnlab.acceptance.CRITERIA["ln-limit"] is not criteria["ln-limit"]
        assert SolveReport.to_csv is not methods[0]
        with pytest.raises(RuntimeError):
            with tracer.op():
                raise RuntimeError("op failed")
    assert all(lnlab_bindings()[key] is value for key, value in before.items())
    assert lnlab.acceptance.CRITERIA == criteria
    assert (SolveReport.to_csv, RadialProfile.__post_init__) == methods
    assert tracer.wrapped_bindings() == []


def test_spans_nest_and_account_for_the_op(tmp_path):
    tracer = tracing.Tracer()
    argv = ["solve", "--n", "4", "--k", "1", "--domain", "annulus",
            "--inner", "0.5", "--outer", "1", "--grid", "200",
            "--out", str(tmp_path / "solve.json")]
    with tracer.installed(), tracer.op():
        start = time.perf_counter()
        assert lnlab.cli.main(argv) == 0
        seconds = time.perf_counter() - start
    (errors, lnlab_s), = tracer.op_checks
    assert errors == 0
    assert 0.9 * seconds <= lnlab_s <= seconds

    m = {name: v["value"] for name, v in tracer.metrics().items()}
    assert m["cli.main.calls"] == 1
    assert m["solver.continuation_tau.calls"] == 2   # cmd_solve re-solves leg 0
    assert m["solver.to_csv.calls"] == 11
    assert m["solver.evals"] >= m["solver.newton_solve.iters"] > 0
    assert m["cones.cone_margin.calls"] == m["solver.evals"]
    assert m["cones.sigma_all.calls"] == m["cones.cone_margin.calls"] + m["cones.f_and_grad.calls"]
    assert m["cones.cone_margin.rows"] > m["cones.cone_margin.calls"]
    assert m["cli.main.self_s"] < m["cli.main.s"]


def test_check_spans_flags_misnested_spans():
    # op [0, 10] > a [1, 6] > b [2, 4]; c [7, 9] directly under op.
    good = [["op", 0.0, 10.0, -1], ["a", 1.0, 6.0, 0], ["b", 2.0, 4.0, 1],
            ["c", 7.0, 9.0, 0]]
    errors, lnlab_s, child = tracing.check_spans(good)
    assert errors == 0 and lnlab_s == 7.0 and child == [7.0, 2.0, 0.0, 0.0]
    # b filed under op although it ran inside a: a and b overlap.
    wrong_parent = [s[:3] + [0] if s[0] == "b" else s for s in good]
    assert tracing.check_spans(wrong_parent)[0] > 0
    assert tracing.check_spans(wrong_parent)[1] > 7.0
    # c filed under a although it ran after a ended.
    outside = [s[:3] + [1] if s[0] == "c" else s for s in good]
    assert tracing.check_spans(outside)[0] > 0


def test_newton_counts_on_the_ball_show_tau_independence():
    """A constant-rhs ball solution does not depend on tau, so only the
    tau = 0 start problem iterates; the 19 tau steps to 0.95 take none."""
    s = lnlab.solver
    spec0 = s.ProblemSpec(cone=lnlab.ConeSpec(4, 2), tau=0.0, domain=s.Ball(1.0),
                          delta=0.05, grid=200)
    start = s.newton_solve(s.initial_profile(spec0), spec0)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.op():
        s.continuation_tau(replace(spec0, tau=0.95))
    m = {name: v["value"] for name, v in tracer.metrics().items()}
    assert m["solver.newton_solve.calls"] == 1 + 19
    assert m["solver.newton_solve.iters"] == start.newton_iterations > 0


def test_make_ops_is_seeded_and_balanced():
    for workload in workloads.WORKLOADS:
        a = workloads.make_ops(workload, 3, 30)
        assert a == workloads.make_ops(workload, 3, 30)
        assert a != workloads.make_ops(workload, 4, 30)
    large = workloads.make_ops("solve-large", 3, 30)
    assert sorted(map(str, large)) == sorted(map(str, workloads.make_ops("solve-large", 4, 30)))
    cli = workloads.make_ops("cli-solve", 3, 30)
    assert workloads.pass_size("cli-solve") == 36
    assert all(cli.count(op) == len(cli) // 36 for op in cli)
    for workload in workloads.WORKLOADS:
        ops = workloads.make_ops(workload, 3, 30)
        assert len(ops) % workloads.pass_size(workload) == 0
