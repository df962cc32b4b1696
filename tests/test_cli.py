"""Command-line front-end: exit codes, determinism, filtering, mutation check."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

import lnlab.acceptance as acceptance
import lnlab.cli as cli
import lnlab.cones as cones
import lnlab.solver as solver
from lnlab import Ball, ConeSpec, ProblemSpec, continuation_tau
from lnlab.cli import _format17, main
from lnlab.errors import (ContinuationStallError, InadmissibleIterateError,
                          InvalidProfileError)
from lnlab.solver import DELTA_SCHEDULE, DeltaContinuationResult


class TestCone:
    def test_gamma_2_of_4(self, capsys):
        assert main(["cone", "--n", "4", "--k", "2"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["mu_plus"] == pytest.approx(1.0, abs=1e-10)
        assert row["contains_e1"] is False

    def test_gamma_1_of_3(self, capsys):
        assert main(["cone", "--n", "3", "--k", "1"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["mu_plus"] == pytest.approx(2.0, abs=1e-10)
        assert row["contains_e1"] is True

    def test_deformed_top_cone(self, capsys):
        assert main(["cone", "--n", "3", "--k", "3", "--tau", "0.5"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["mu_plus"] == pytest.approx(1.0, abs=1e-10)

    def test_invalid_range_is_usage_error(self, capsys):
        assert main(["cone", "--n", "2", "--k", "1"]) == 2
        assert main(["cone", "--n", "4", "--k", "5"]) == 2
        assert main(["cone", "--n", "4", "--k", "2", "--tau", "1.5"]) == 2

    @pytest.mark.parametrize("argv", [
        ["cone", "--n", "2000", "--k", "1000"],
        ["solve", "--n", "1100", "--k", "550", "--tau", "0.5", "--grid", "20"],
    ], ids=["cone", "solve"])
    def test_binomial_beyond_the_float_range_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflows a float" in err

    def test_missing_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["cone"])
        assert err.value.code == 2
        err = capsys.readouterr().err
        assert "--n" in err and "--k" in err

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "cone.json"
        assert main(["cone", "--n", "4", "--k", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 4

    def test_out_file_in_missing_directory(self, tmp_path, capsys):
        """--out makes the directories it names, with the bytes of a write
        into an existing one."""
        flags = ["cone", "--n", "4", "--k", "2", "--out"]
        assert main(flags + [str(tmp_path / "cone.json")]) == 0
        out = tmp_path / "new" / "dir" / "cone.json"
        assert main(flags + [str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "cone.json").read_bytes()

    @pytest.mark.parametrize("out", ["", "cone.json/x.json"],
                             ids=["directory", "under-a-file"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, out):
        (tmp_path / "cone.json").write_text("")
        path = tmp_path / out
        assert main(["cone", "--n", "4", "--k", "2", "--out", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")

    def test_determinism(self, capsys):
        main(["cone", "--n", "6", "--k", "3", "--tau", "0.7"])
        first = capsys.readouterr().out
        main(["cone", "--n", "6", "--k", "3", "--tau", "0.7"])
        assert capsys.readouterr().out == first


class TestSolve:
    ARGS = ["solve", "--n", "3", "--k", "1", "--tau", "0.9", "--grid", "150"]

    def test_ball_run_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["delta_sweep"]["converged"] is True
        assert summary["final"]["converged"] is True
        assert abs(summary["final"]["boundary_slope"] - 1.0) < 0.05
        assert summary["delta_sweep"]["deltas"] == list(DELTA_SCHEDULE)
        legs = sorted(tmp_path.glob("run_leg*.csv"))
        assert len(legs) == len(summary["delta_sweep"]["legs"]) == 11
        header = legs[0].read_text().split("\n")[0]
        assert header == "r,u,residual,margin"

    def test_stdout_and_determinism(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["spec"]["grid"] == 150

    def test_annulus_inverted_radii_is_usage_error(self, capsys):
        rc = main(["solve", "--domain", "annulus", "--inner", "1.0",
                   "--outer", "0.5"])
        assert rc == 2

    @pytest.mark.parametrize("flags, name", [
        (["--tau", "nan"], "tau"),
        (["--outer", "inf"], "outer"),
        (["--domain", "annulus", "--inner", "0.5", "--outer", "inf"], "outer"),
    ])
    def test_non_finite_value_is_usage_error(self, capsys, flags, name):
        assert main(["solve", "--grid", "50"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    @pytest.mark.parametrize("flags", [
        ["--outer", "1e200"],
        ["--domain", "annulus", "--inner", "1e-200", "--outer", "2e-200"],
    ], ids=["ball", "annulus"])
    def test_radius_out_of_float_range_is_usage_error(self, capsys, flags):
        assert main(["solve", "--grid", "50"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "out of float range" in err

    def test_grid_numpy_cannot_allocate_is_usage_error(self, capsys):
        assert main(["solve", "--grid", str(10**20)]) == 2
        assert capsys.readouterr().err.startswith(f"error: grid {10**20} is too large")

    def test_grid_the_machine_cannot_hold_is_usage_error(self, capsys, monkeypatch):
        """A grid numpy accepts but cannot allocate: one error line that names
        the MemoryError, no traceback.  The allocation is stubbed."""
        def no_memory(domain, grid):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(solver, "_grid", no_memory)
        assert main(["solve", "--grid", "100"]) == 2
        assert capsys.readouterr().err == "error: MemoryError: Unable to allocate 745. GiB\n"

    def test_tiny_ball_names_the_rounded_bump(self, capsys):
        """Radii that stay in float range but fall below the rounding of an
        absolute datum.  The CLI's legs are multiples of the outer radius,
        so it solves the 1e-150 ball; at the absolute datum 0.1 its start
        is refused by a numerical failure that names the cause."""
        assert main(["solve", "--n", "8", "--outer", "1e-150", "--grid", "50"]) == 0
        assert json.loads(capsys.readouterr().out)["delta_sweep"]["converged"]
        spec = ProblemSpec(cone=ConeSpec(8, 1), tau=0.9, domain=Ball(1e-150), delta=0.1,
                           grid=50)
        with pytest.raises(InadmissibleIterateError,
                           match=re.escape("bump max(w)/|w'(b)| = 5e-151 rounds away "
                                           "against delta (ball outer radius 1e-150")):
            continuation_tau(spec)

    def test_cancelling_torsion_start_names_its_cause(self, capsys, monkeypatch):
        """n = 100 on a grid of 9 intervals, where the discrete torsion
        function w dips below zero.  No CLI radii cancel the start: its
        datum is 0.1 b, b the outer radius, and min w/|w'(b)| >= -0.05 b
        at n <= 1e6 and grids 8 to 40 for a/b from 1e-12 to 0.9 and on the
        ball.  On these radii the tau = 0 start problem stops short instead,
        and the failure names the coarse inner sphere.  With the legs made
        absolute again, the start cancels to u <= 0: a usage error that
        names the radii, n, delta, the grid and the node, not only
        "conformal factor must be positive".  The 1e24 annulus, whose
        continuum start cancelled, solves."""
        argv = ["solve", "--n", "100", "--domain", "annulus", "--inner", "1e-5",
                "--outer", "10", "--grid", "9"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the tau = 0 start problem did not "
                              "converge: ")
        assert "; the start is coarse at the inner sphere: h/a = 1.11e+05 " in err
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_delta_legs", lambda domain: list(DELTA_SCHEDULE))
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the tau = 0 start is not finite and positive: "
                              "annulus radii (1e-05, 10), n = 100, delta 0.1, "
                              "grid 9: at node 8")
        assert main(["solve", "--n", "3", "--k", "1", "--domain", "annulus",
                     "--inner", "1e24", "--outer", "1.5e24"]) == 0
        assert json.loads(capsys.readouterr().out)["delta_sweep"]["converged"]

    @pytest.mark.parametrize("flags, name", [
        (["--domain", "annulus", "--inner", "0.5", "--outer", "1",
          "--radius", "7"], "--radius"),
        (["--inner", "0.9", "--outer", "0.1"], "--inner"),
        (["--inner", "0.2"], "--inner"),
    ], ids=["annulus-radius", "ball-inner-outer", "ball-inner"])
    def test_flag_of_the_other_domain_is_usage_error(self, capsys, flags, name):
        """A flag that cannot act on the chosen domain is refused by name."""
        try:
            rc = main(["solve", "--grid", "50"] + flags)
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        assert name in capsys.readouterr().err

    def test_ball_outer_radius(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", "--domain", "ball", "--outer", "2", "--grid", "50",
                     "--out", str(out)]) == 0
        r = np.loadtxt(tmp_path / "run_leg00.csv", delimiter=",", skiprows=1,
                       usecols=0)
        assert r[0] == 0.0 and r[-1] == 2.0

    def test_annulus_missing_radii(self, capsys):
        assert main(["solve", "--domain", "annulus"]) == 2

    def test_annulus_run(self, capsys):
        rc = main(["solve", "--n", "3", "--k", "2", "--tau", "0.8",
                   "--domain", "annulus", "--inner", "0.5", "--outer", "1.0",
                   "--grid", "100"])
        assert rc == 0

    @pytest.mark.parametrize("domain", [
        [], ["--domain", "annulus", "--inner", "0.5", "--outer", "1.0"]])
    def test_head_report_equals_first_leg(self, capsys, domain):
        """The head tau continuation solves the first leg's problem with the
        same schedule, so the two reports agree field for field."""
        assert main(self.ARGS + domain) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["tau_continuation"] == summary["delta_sweep"]["legs"][0]

    def test_stopped_delta_sweep_names_its_leg_and_both_causes(self, tmp_path, capsys,
                                                                monkeypatch):
        """A warm delta leg whose start is refused, and whose fresh tau
        continuation stalls, stops the sweep: the reports are still
        written, the exit code is 1, and stderr names that leg's delta and
        both causes."""
        leg, fallback = DELTA_SCHEDULE[1], solver.continuation_tau

        def refused(reports, delta):
            raise InvalidProfileError("u is not positive")

        def stalled(spec, opts=None):
            if spec.delta == leg:
                raise ContinuationStallError("tau continuation stalled at tau = 0.5")
            return fallback(spec, opts)

        monkeypatch.setattr(solver, "_leg_start", refused)
        monkeypatch.setattr(solver, "continuation_tau", stalled)
        assert main(self.ARGS + ["--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"numerical failure: delta sweep stopped at delta = {leg}: "
            "warm start refused: the predicted start is not finite and positive; "
            "fresh tau continuation failed: tau continuation stalled at tau = 0.5\n")
        sweep = json.loads((tmp_path / "run.json").read_text())["delta_sweep"]
        assert (sweep["converged"], sweep["failed_delta"]) == (False, leg)
        assert sweep["deltas"] == [DELTA_SCHEDULE[0]] and len(sweep["legs"]) == 1
        assert [p.name for p in tmp_path.glob("run_leg*.csv")] == ["run_leg00.csv"]

    @pytest.mark.parametrize("grid", [2000, 4000])
    @pytest.mark.parametrize("domain", [[], ["--domain", "annulus", "--inner", "0.5"]],
                             ids=["ball", "annulus"])
    def test_threshold_cone_converges_on_fine_grids(self, tmp_path, capsys,
                                                    domain, grid):
        """Above grid 1000 the tau = 0 start stalls above NEWTON_TOL at its
        rounding floor, where newton_solve accepts it: every leg converges."""
        out = tmp_path / "run"
        assert main(["solve", "--n", "4", "--k", "2", "--tau", "0.95",
                     "--grid", str(grid), "--out", str(out)] + domain) == 0
        sweep = json.loads((tmp_path / "run.json").read_text())["delta_sweep"]
        assert len(sweep["legs"]) == 11
        assert all(leg["converged"] for leg in sweep["legs"])

    @pytest.mark.parametrize("flag, value", [("--tau-schedule", "0.5"),
                                             ("--rhs", "0.5"),
                                             ("--radius", "1"),
                                             ("--config", "cfg.json"),
                                             ("--delta-schedule", "0.1")])
    def test_removed_flag_is_not_an_option(self, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            main(self.ARGS + [flag, value])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestVerify:
    FAST = ["verify", "--only", "barrier,mu-plus-table"]

    def test_fast_subset_passes(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "[PASS] barrier" in out
        assert "[PASS] mu-plus-table" in out
        assert "acceptance: PASS (2/2)" in out

    def test_over_runtime_budget_fails_with_the_criterion_named(self, capsys,
                                                                 monkeypatch):
        """A criterion that passes but takes longer than its RUNTIME_LIMITS
        budget is named on an "over runtime budget" line, and verify exits 1
        though every criterion passed."""
        monkeypatch.setitem(acceptance.RUNTIME_LIMITS, "barrier", 0.0)
        assert main(self.FAST) == 1
        out = capsys.readouterr().out
        assert "[PASS] barrier" in out and "[PASS] mu-plus-table" in out
        assert "over runtime budget: barrier\n" in out
        assert "acceptance: PASS (2/2)" in out

    def test_only_unknown_name(self, capsys):
        assert main(["verify", "--only", "nonsense"]) == 2
        assert main(["verify", "--only", "barrier,bogus"]) == 2
        captured = capsys.readouterr()
        assert "'bogus'" in captured.err and "[PASS]" not in captured.out

    @pytest.mark.parametrize("names", [",", "", " , "])
    def test_only_without_a_name_is_usage_error(self, capsys, monkeypatch,
                                                names):
        """--only that names no criterion is refused with the choices, not
        read as "run them all"."""
        ran = []
        monkeypatch.setitem(acceptance.CRITERIA, "barrier",
                            lambda: ran.append("barrier"))
        assert main(["verify", "--only", names]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: no criterion named; choices: "
                                + ", ".join(acceptance.CRITERIA) + "\n")
        assert captured.out == "" and ran == []

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert main(self.FAST + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert {rec["name"] for rec in payload} == {"barrier", "mu-plus-table"}
        assert all(rec["passed"] for rec in payload)

    def test_report_file_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir" / "verify.json"
        assert main(self.FAST + ["--out", str(out)]) == 0
        names = [rec["name"] for rec in json.loads(out.read_text())]
        assert names == ["barrier", "mu-plus-table"]

    def test_failed_ln_limit_report_is_valid_json(self, tmp_path, capsys,
                                                   monkeypatch):
        """A failed sweep measures nan, which the report must still spell as
        JSON."""
        failed = DeltaContinuationResult(reports=[], failed_delta=0.1)
        monkeypatch.setattr(acceptance, "_ln_limit_sweep",
                            lambda: (None, failed))
        out = tmp_path / "verify.json"
        assert main(["verify", "--only", "ln-limit", "--out", str(out)]) == 1
        [rec] = json.loads(out.read_text())
        assert rec["name"] == "ln-limit" and rec["passed"] is False
        assert rec["measured"] != rec["measured"]

    def test_mutated_sigma_recurrence_fails_named_criterion(self, capsys,
                                                            monkeypatch):
        """Injecting a 10% error into each step of the sigma recurrence
        (sigma_j scaled by 1.1^j) must trip the suite with the affected
        criterion named."""
        sigma_all = cones.sigma_all
        monkeypatch.setattr(cones, "sigma_all",
                            lambda lam, *args: sigma_all(1.1 * lam, *args))
        rc = main(["verify", "--only", "hyperbolic-exactness"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] hyperbolic-exactness" in out
        assert "acceptance: FAIL" in out

    def test_mutated_full_form_recurrence_fails_named_criterion(self, capsys,
                                                               monkeypatch):
        """The full form's recurrence runs in the cone pass itself, not
        through sigma_all.  The same 10% error per step there must trip
        cone-properties, whose spectra are full, by name: f grows by 1.1
        and crosses the trace bound f <= sigma_1 / n."""
        sigma_sorted = cones._sigma_sorted
        monkeypatch.setattr(cones, "_sigma_sorted",
                            lambda lam, k: sigma_sorted(1.1 * lam, k))
        rc = main(["verify", "--only", "cone-properties"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] cone-properties" in out
        assert "trace-bound: " in out
        assert "acceptance: FAIL" in out

    def test_mutated_mu_plus_closed_form_fails_named_criterion(self, capsys,
                                                               monkeypatch):
        """Swapping k and n - k in the closed form of mu+ (where n - k >= 1)
        must fail mu-plus-table by name."""
        exact = cones._mu_plus_exact
        monkeypatch.setattr(
            cones, "_mu_plus_exact",
            lambda cone: exact(replace(cone, k=cone.n - cone.k))
            if cone.k < cone.n else exact(cone))
        rc = main(["verify", "--only", "mu-plus-table"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] mu-plus-table" in out
        assert "acceptance: FAIL" in out

    def test_seed_changes_nothing_for_deterministic_criteria(self, capsys):
        assert main(self.FAST + ["--seed", "5"]) == 0

    def test_negative_seed_is_usage_error(self, capsys, monkeypatch):
        """The randomized criteria's draws take a non-negative seed; verify
        refuses a negative one by name, before any criterion runs."""
        ran = []
        monkeypatch.setitem(acceptance.CRITERIA, "cone-properties",
                            lambda seed: ran.append(seed))
        assert main(["verify", "--only", "cone-properties", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"
        assert captured.out == "" and ran == []


class TestFormat17:
    def test_non_finite_floats_round_trip(self):
        payload = {"a": float("nan"), "b": [float("inf"), -float("inf")],
                   "c": np.float64("-inf")}
        text = _format17(payload)
        assert text == '{"a": NaN, "b": [Infinity, -Infinity], "c": -Infinity}'
        back = json.loads(text)
        assert back["a"] != back["a"]
        assert back["b"] == [float("inf"), -float("inf")]
        assert back["c"] == -float("inf")

    def test_finite_floats_keep_17_digits(self):
        values = [1 / 3, -0.0, 5e-324, 1e22, 0.1, np.float64(2 / 3)]
        text = _format17(values)
        assert text == "[" + ", ".join(format(float(x), ".17g")
                                       for x in values) + "]"
        assert json.loads(text) == [float(x) for x in values]
