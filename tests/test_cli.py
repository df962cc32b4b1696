"""Command-line front-end: exit codes, determinism, filtering, mutation check."""

import json

import pytest

import lnlab.cones as cones
from lnlab.cli import main


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

    def test_missing_required(self, capsys):
        assert main(["cone"]) == 2

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "cone.json"
        assert main(["cone", "--n", "4", "--k", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 4

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 5, "k": 2, "tau": 0.8}')
        assert main(["cone", "--config", str(cfg), "--k", "3"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["n"] == 5 and row["k"] == 3 and row["tau"] == 0.8

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        with pytest.raises(SystemExit) as err:
            main(["cone", "--config", str(cfg), "--n", "3", "--k", "1"])
        assert err.value.code == 2

    def test_determinism(self, capsys):
        main(["cone", "--n", "6", "--k", "3", "--tau", "0.7"])
        first = capsys.readouterr().out
        main(["cone", "--n", "6", "--k", "3", "--tau", "0.7"])
        assert capsys.readouterr().out == first


class TestSolve:
    ARGS = ["solve", "--n", "3", "--k", "1", "--tau", "0.9", "--grid", "150",
            "--delta-schedule", "0.1,0.05,0.01"]

    def test_ball_run_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["delta_sweep"]["converged"] is True
        assert summary["final"]["converged"] is True
        assert abs(summary["final"]["boundary_slope"] - 1.0) < 0.05
        legs = sorted(tmp_path.glob("run_leg*.csv"))
        assert len(legs) == 3
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

    def test_annulus_missing_radii(self, capsys):
        assert main(["solve", "--domain", "annulus"]) == 2

    def test_annulus_run(self, capsys):
        rc = main(["solve", "--n", "3", "--k", "2", "--tau", "0.8",
                   "--domain", "annulus", "--inner", "0.5", "--outer", "1.0",
                   "--grid", "100", "--delta-schedule", "0.1,0.05"])
        assert rc == 0

    def test_tau_schedule_flag(self, capsys):
        rc = main(self.ARGS + ["--tau-schedule", "0.3,0.6,0.9"])
        assert rc == 0

    def test_config_matches_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 3, "k": 1, "tau": 0.9, "grid": 150, '
                       '"delta-schedule": [0.1, 0.05, 0.01]}')
        assert main(["solve", "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == from_config

    @pytest.mark.parametrize("config", ['{"grid": 100.5}', '{"grid": "100"}',
                                        '{"grid": true}', '{"domain": "disk"}',
                                        '{"tau-schedule": "0.5,x"}'])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        with pytest.raises(SystemExit) as err:
            main(["solve", "--config", str(cfg)])
        assert err.value.code == 2
        key = next(iter(json.loads(config)))
        assert f"config key {key!r}" in capsys.readouterr().err

    def test_bad_schedule_text(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--delta-schedule", "0.1,abc"])
        assert err.value.code == 2


class TestVerify:
    FAST = ["verify", "--only", "barrier,mu-plus-table"]

    def test_fast_subset_passes(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "[PASS] barrier" in out
        assert "[PASS] mu-plus-table" in out
        assert "acceptance: PASS (2/2)" in out

    def test_only_unknown_name(self, capsys):
        assert main(["verify", "--only", "nonsense"]) == 2

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert main(self.FAST + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert {rec["name"] for rec in payload} == {"barrier", "mu-plus-table"}
        assert all(rec["passed"] for rec in payload)

    def test_mutated_sigma_recurrence_fails_named_criterion(self, capsys,
                                                            monkeypatch):
        """Injecting a 10% error into each step of the sigma recurrence
        (sigma_j scaled by 1.1^j) must trip the suite with the affected
        criterion named."""
        sigma_all = cones.sigma_all
        monkeypatch.setattr(cones, "sigma_all",
                            lambda lam: sigma_all(1.1 * lam))
        rc = main(["verify", "--only", "hyperbolic-exactness"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] hyperbolic-exactness" in out
        assert "acceptance: FAIL" in out

    def test_seed_changes_nothing_for_deterministic_criteria(self, capsys):
        assert main(self.FAST + ["--seed", "5"]) == 0
