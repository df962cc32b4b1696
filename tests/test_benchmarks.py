"""The scripts in benchmarks/ are run by hand against another checkout, so
nothing else exercises them: each must at least import cleanly, and the
parts of compare.py that need no second checkout run here."""

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

# The per-change scripts folded into compare.py, each with the compare.py
# names that now do its work: every one's alternating perfbench pairs and
# traced counts, bench_pair_kernel's claim (now `verdict`) and
# bench_newton_step's stage probe.
FOLDED = {
    "bench_pair_kernel": ("PAIRS", "compare_workload", "verdict", "differing_counts"),
    "bench_solve_output": ("PAIRS", "compare_workload", "differing_counts"),
    "bench_mu_plus": ("PAIRS", "compare_workload", "differing_counts"),
    "bench_cone_pass": ("PAIRS", "compare_workload", "differing_counts"),
    "bench_row_blocks": ("PAIRS", "compare_workload", "differing_counts"),
    "bench_full_path": ("PAIRS", "compare_workload", "differing_counts"),
    "bench_newton_step": ("PAIRS", "compare_workload", "differing_counts",
                          "STAGE_ROUNDS", "stage_times", "stage_medians"),
}


@pytest.mark.parametrize("script", ["compare", "diff_outputs", "census", *FOLDED])
def test_imports_without_running(monkeypatch, script):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    module = importlib.import_module("compare" if script in FOLDED else script)
    assert callable(module.main)
    missing = [name for name in FOLDED.get(script, ()) if not hasattr(module, name)]
    assert not missing, missing


def test_census_slice_has_no_foreign_exception_or_warning(monkeypatch):
    """The first 20 specs of the census sample, whatever their outcome:
    each converges or fails with an error that names its cause, and none
    warns (run_specs turns warnings into errors), in its tau continuation
    or in its delta sweep."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    census = importlib.import_module("census")
    specs = census.sample()[:20]
    results = census.run_specs(specs)
    assert len(results) == 20
    assert [(r, spec) for r, spec in zip(results, specs)
            if r["outcome"] == "foreign"] == []
    assert census.foreign_errors(results, specs) == []


def test_census_counts_each_specs_newton_solves(monkeypatch):
    """run_specs records each spec's newton_solve calls and refused calls,
    counted at lnlab.solver's module global, which it restores after.  A
    ball at tau = 0.1 takes the start and two steps, none refused; a tau =
    0 spec one call; a builder call none."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    census = importlib.import_module("census")
    from lnlab import solver
    solve = solver.newton_solve
    ball = {"n": 4, "k": 2, "tau": 0.1, "domain": "ball", "inner": None,
            "outer": 1.0, "delta": 0.05, "grid": 50}
    results = census.run_specs([ball, dict(ball, tau=0.0),
                                census.builder_sample()[0]])
    assert solver.newton_solve is solve
    assert [(r["outcome"], r["newton_calls"], r["newton_refused"]) for r in results] == [
        ("converged", 3, 0), ("converged", 1, 0), ("built", 0, 0)]
    assert census.newton_totals(results) == {"converged": {"calls": 4, "refused": 0},
                                             "built": {"calls": 0, "refused": 0}}


def test_census_runs_each_specs_delta_sweep(monkeypatch):
    """run_specs runs continuation_delta on each problem spec after its tau
    continuation, and restores lnlab.solver.continuation_tau after.  Census
    specs 91, 73 and 24: on the first Newton refuses leg 2's warm start and
    the fresh tau continuation it falls back to completes the sweep; on
    the second that fallback's tau = 0 start problem stops short; the
    third stops at leg 0, outside the cone.  Each sweep counts its own
    newton_solve calls and refused calls: on the second, one call for leg
    0's tau = 0 solve, one per warm leg and one for the fallback's start.
    A builder call runs no sweep."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    census = importlib.import_module("census")
    from lnlab import solver
    continuation_tau = solver.continuation_tau
    specs = census.sample()
    results = census.run_specs([specs[91], specs[73], specs[24],
                                census.builder_sample()[0]])
    assert solver.continuation_tau is continuation_tau
    assert [(r["sweep"], r["fallbacks"], r["sweep_newton_calls"],
             r["sweep_newton_refused"]) for r in results[:3]] == [
        ("complete", 1, 52, 1),
        ("stopped at leg 2: the tau = 0 start problem did not converge", 1, 4, 2),
        ("stopped at leg 0: the step left the cone", 0, 41, 25)]
    assert all(r["sweep_seconds"] > 0 for r in results[:3])
    assert "sweep" not in results[3]
    assert census.sweep_totals(results[:3]) == {
        "counts": {"complete": 1,
                   "stopped at leg 0: the step left the cone": 1,
                   "stopped at leg 2: the tau = 0 start problem did not converge": 1},
        "newton": {"complete": {"calls": 52, "refused": 1},
                   "stopped at leg 0: the step left the cone": {"calls": 41, "refused": 25},
                   "stopped at leg 2: the tau = 0 start problem did not converge": {
                       "calls": 4, "refused": 2}},
        "fallbacks": 2}


def test_census_stops_a_run_at_its_newton_call_budget(monkeypatch):
    """With SPEC_NEWTON_CALLS at 3, a run that needs more calls is stopped
    at its fourth and classed by the budget, and each run, a spec's tau
    continuation or its delta sweep, has its own count.  A ball at tau =
    0.2 needs 5 calls in each; at tau = 0 the continuation needs 1 and the
    sweep 11, one per leg."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    census = importlib.import_module("census")
    monkeypatch.setattr(census, "SPEC_NEWTON_CALLS", 3)
    ball = {"n": 4, "k": 2, "tau": 0.2, "domain": "ball", "inner": None,
            "outer": 1.0, "delta": 0.05, "grid": 50}
    results = census.run_specs([ball, dict(ball, tau=0.0)])
    stopped = "stopped after 3 newton_solve calls"
    assert [(r["outcome"], r["newton_calls"], r["sweep"], r["sweep_newton_calls"])
            for r in results] == [(stopped, 3, stopped, 3), ("converged", 1, stopped, 3)]
    assert census.foreign_errors(results, [ball, ball]) == []


def test_census_restores_the_solver_when_a_run_raises(monkeypatch):
    """run_specs puts lnlab.solver's newton_solve and continuation_tau back,
    also when a run raises past the census."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    census = importlib.import_module("census")
    from lnlab import solver
    originals = (solver.newton_solve, solver.continuation_tau)

    def interrupted(spec):
        raise KeyboardInterrupt

    monkeypatch.setattr(census, "_sweep", interrupted)
    with pytest.raises(KeyboardInterrupt):
        census.run_specs(census.sample()[:1])
    assert (solver.newton_solve, solver.continuation_tau) == originals


def test_census_results_do_not_depend_on_the_clock(monkeypatch):
    """Two run_specs runs on a slice of specs and builder calls give equal
    results once their seconds are dropped."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    census = importlib.import_module("census")
    specs = census.sample()[:6] + census.builder_sample()[:3]

    def load_free():
        return [{key: value for key, value in result.items()
                 if key not in ("seconds", "sweep_seconds")}
                for result in census.run_specs(specs)]

    assert load_free() == load_free()


def test_census_sample_ends_with_zero_datum_copies(monkeypatch):
    """The SPECS drawn specs come first, each at a positive delta, then a
    copy at delta = 0 of every tenth of them.  The first three copies, two
    balls and an annulus, converge."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    census = importlib.import_module("census")
    specs = census.sample()
    drawn, copies = specs[:census.SPECS], specs[census.SPECS:]
    assert all(spec["delta"] > 0 for spec in drawn)
    assert copies == [dict(spec, delta=0.0) for spec in drawn[::10]]
    assert len(copies) == 12
    assert {spec["domain"] for spec in copies[:3]} == {"ball", "annulus"}
    assert [r["outcome"] for r in census.run_specs(copies[:3])] == ["converged"] * 3


def test_builder_census_slice_has_no_foreign_exception_or_warning(monkeypatch):
    """The first 30 builder calls of the census: each builds, certifies or
    is refused with an error that names its cause, and none warns."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    census = importlib.import_module("census")
    calls = census.builder_sample()[:30]
    assert {call["builder"] for call in calls} == {
        "hyperbolic_ball_profile", "barrier_profile", "certificate"}
    results = census.run_specs(calls)
    assert len(results) == 30
    assert [(r, call) for r, call in zip(results, calls)
            if r["outcome"] == "foreign"] == []


@pytest.fixture
def compare(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("compare")


def test_diff_outputs_fails_on_a_nonzero_exit(monkeypatch, tmp_path, capsys):
    """A command that exits nonzero the same way in both checkouts leaves
    identical trees; diff_outputs still exits 1 and names it."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    diff_outputs = importlib.import_module("diff_outputs")
    codes = {"parent": [("verify", 0), ("large/4_2_0.95_ball", 1)],
             "change": [("verify", 0), ("large/4_2_0.95_ball", 1)]}
    assert diff_outputs.nonzero_exits(codes) == [
        "parent: large/4_2_0.95_ball exited 1", "change: large/4_2_0.95_ball exited 1"]
    assert diff_outputs.nonzero_exits(
        {side: [(name, 0) for name, _ in side_codes]
         for side, side_codes in codes.items()}) == []

    parent = tmp_path / "parent"
    (parent / "src" / "lnlab").mkdir(parents=True)
    for exit_code, want in ((1, 1), (0, 0)):
        monkeypatch.setattr(diff_outputs, "run_checkout",
                            lambda checkout, out: [("verify", 0), ("cone_4_2_1", exit_code)])
        assert diff_outputs.main([str(parent)]) == want
        stdout = capsys.readouterr().out
        assert ("cone_4_2_1 exited 1" in stdout) == bool(exit_code)
        assert f"0 files, 0 differ, {2 * exit_code} nonzero exits" in stdout


def test_diff_outputs_keeps_each_commands_stderr(monkeypatch, tmp_path):
    """A command's stderr goes into stderr/NAME.txt, with the checkout's and
    the output directory's paths spelled CHECKOUT and OUT, so both sides
    write the same bytes; a command that printed none leaves no file."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    diff_outputs = importlib.import_module("diff_outputs")
    checkout, out = tmp_path / "checkout", tmp_path / "out"
    (checkout / "src").mkdir(parents=True)
    out.mkdir()
    warn = "import sys; sys.stderr.write(' '.join(sys.argv[1:]) + ' warned\\n')"
    monkeypatch.setattr(diff_outputs, "commands", lambda checkout, out: [
        ("solve/loud", [sys.executable, "-c", warn, str(checkout / "src"), str(out)], None),
        ("quiet", [sys.executable, "-c", "pass"], None)])
    assert diff_outputs.run_checkout(checkout, out) == [("solve/loud", 0), ("quiet", 0)]
    assert (out / "stderr" / "solve" / "loud.txt").read_text() == "CHECKOUT/src OUT warned\n"
    assert diff_outputs.files(out / "stderr") == {Path("solve/loud.txt")}


def test_diff_outputs_names_the_newton_iteration_changes(monkeypatch, tmp_path):
    """A solve JSON gets the δ-sweep legs whose newton_iterations changed,
    and a large run's report JSON its own newton_iterations change; both
    get the dotted key paths present on one side only."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    diff_outputs = importlib.import_module("diff_outputs")

    def write(side, name, document):
        path = tmp_path / side / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))
        return path

    def sweep(*iterations):
        return {"delta_sweep": {"legs": [{"newton_iterations": i} for i in iterations]}}

    solve = [write(side, "solve.json", sweep(*legs))
             for side, legs in (("parent", (3, 15, 2)), ("change", (3, 3, 2)))]
    assert diff_outputs.change_detail(*solve) == "newton_iterations leg 1: 15 -> 3"
    report = [write(side, "report.json", {"newton_iterations": i, "residual_sup": r})
              for side, i, r in (("parent", 23, 1e-9), ("change", 4, 2e-9))]
    assert diff_outputs.change_detail(*report) == "newton_iterations 23 -> 4"
    same = write("change", "same/report.json", {"newton_iterations": 23, "residual_sup": 2e-9})
    assert diff_outputs.change_detail(report[0], same) == "newton_iterations unchanged"
    assert diff_outputs.change_detail(tmp_path / "a.txt", tmp_path / "b.txt") is None
    # Keys on one side only are named by their dotted paths.
    diag = sweep(3, 15, 2)
    diag["delta_sweep"]["interior_sup_diffs"] = [0.1, 0.01]
    solve_keys = [write(side, "keys/solve.json", document)
                  for side, document in (("parent", diag), ("change", sweep(3, 3, 2)))]
    assert diff_outputs.change_detail(*solve_keys) == (
        "newton_iterations leg 1: 15 -> 3; keys removed: delta_sweep.interior_sup_diffs")
    grown = write("change", "grown/report.json",
                  {"newton_iterations": 23, "limit": {"delta": 0.0}})
    assert diff_outputs.change_detail(report[0], grown) == (
        "newton_iterations unchanged; keys removed: residual_sup; keys added: limit, "
        "limit.delta")


@pytest.mark.parametrize("parts, missing", [
    ((), "src/lnlab or perfbench/run.py"),
    (("src/lnlab",), "perfbench/run.py"),
    (("perfbench/run.py",), "src/lnlab")], ids=["empty", "no-perfbench", "no-src"])
def test_compare_refuses_a_path_that_is_not_a_checkout(compare, monkeypatch, tmp_path,
                                                       capsys, parts, missing):
    """Exit status 2 and the missing parts named, before any subprocess."""
    def no_run(*args, **kwargs):
        raise AssertionError("compare started a subprocess")

    monkeypatch.setattr(compare.subprocess, "run", no_run)
    for part in parts:
        path = tmp_path / part
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix:
            path.touch()
        else:
            path.mkdir()
    assert compare.main([str(tmp_path)]) == 2
    assert capsys.readouterr().err.endswith(f"no {missing}\n")


def write_tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_src_lines_counts_each_module_of_each_side(compare, monkeypatch, tmp_path,
                                                   capsys):
    """Per src/lnlab/*.py file and in total, as `wc -l` counts them; files
    elsewhere in the tree are not counted.  main writes both sides' counts
    into the record."""
    parent = write_tree(tmp_path / "parent", {
        "src/lnlab/__init__.py": "", "src/lnlab/a.py": "x = 1\ny = 2\n",
        "src/lnlab/b.py": "z = 3", "src/lnlab/sub/c.py": "w = 4\n",
        "tests/test_a.py": "assert True\n", "perfbench/run.py": ""})
    change = write_tree(tmp_path / "change", {
        "src/lnlab/__init__.py": "", "src/lnlab/a.py": "x = 1\n",
        "src/lnlab/d.py": "\n\n\n"})
    assert compare.src_lines(parent) == {"__init__.py": 0, "a.py": 2, "b.py": 0,
                                         "total": 2}
    assert compare.src_lines(change) == {"__init__.py": 0, "a.py": 1, "d.py": 3,
                                         "total": 4}
    monkeypatch.setattr(compare, "alternate",
                        lambda *args: {"parent": [{}], "change": [{}]})
    monkeypatch.setattr(compare, "compare_workload",
                        lambda *args: {"end_to_end": {}})
    monkeypatch.setattr(compare, "run_census", lambda checkout: {
        "counts": {}, "foreign": [], "builders": {"counts": {}, "foreign": []}})
    monkeypatch.setattr(compare, "command_imports", lambda checkout: {})
    assert compare.main([str(parent)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["src_lines"] == {"parent": compare.src_lines(parent),
                                   "change": compare.src_lines(compare.ROOT)}
    assert record["src_lines"]["change"]["total"] == sum(
        path.read_bytes().count(b"\n")
        for path in (compare.ROOT / "src" / "lnlab").glob("*.py"))


def test_command_imports_lists_what_each_command_loads_beyond_numpy(compare):
    """Each of IMPORT_COMMANDS exits 0 in a fresh interpreter and reports the
    modules it imported beyond numpy's, with its ru_maxrss: lnlab's own, and
    no numpy.random or hashlib from the verify of the randomized criteria."""
    imports = compare.command_imports(compare.ROOT)
    assert set(imports) == set(compare.IMPORT_COMMANDS) == {"verify", "solve"}
    for record in imports.values():
        assert record["exit"] == 0 and record["ru_maxrss_kib"] > 0
        assert "lnlab.cli" in record["modules"] and "numpy" not in record["modules"]
        assert record["modules"] == sorted(record["modules"])
        assert not {"numpy.random", "secrets", "hashlib"} & set(record["modules"])


def test_compare_records_each_sides_imports(compare, monkeypatch, tmp_path, capsys):
    """main writes command_imports of both sides under "imports"."""
    parent = write_tree(tmp_path / "parent", {"src/lnlab/__init__.py": "",
                                              "perfbench/run.py": ""})
    monkeypatch.setattr(compare, "alternate",
                        lambda *args: {"parent": [{}], "change": [{}]})
    monkeypatch.setattr(compare, "compare_workload", lambda *args: {"end_to_end": {}})
    monkeypatch.setattr(compare, "run_census", lambda checkout: {
        "counts": {}, "foreign": [], "builders": {"counts": {}, "foreign": []}})
    monkeypatch.setattr(compare, "command_imports",
                        lambda checkout: {"verify": {"checkout": checkout.name}})
    assert compare.main([str(parent)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["imports"] == {"parent": {"verify": {"checkout": "parent"}},
                                 "change": {"verify": {"checkout": compare.ROOT.name}}}


STUB_SPECS = [{"n": 3, "grid": 10}, {"n": 4, "grid": 20}, {"n": 5, "grid": 30}]


def stub_result(outcome, calls=1, refused=0, **more):
    return {"outcome": outcome, "seconds": 0.1, "newton_calls": calls,
            "newton_refused": refused, **more}


def test_census_summary_counts_classes_and_names_foreign_errors(compare):
    results = [stub_result("converged", 20),
               stub_result("foreign", 7, 2, error="RuntimeWarning: overflow"),
               stub_result("converged", 22, 1)]
    assert compare.census.summary(STUB_SPECS, results) == {
        "counts": {"converged": 2, "foreign": 1},
        "newton": {"converged": {"calls": 42, "refused": 1},
                   "foreign": {"calls": 7, "refused": 2}},
        "foreign": [{"error": "RuntimeWarning: overflow", "spec": STUB_SPECS[1]}]}
    assert compare.census.summary(STUB_SPECS, results[::2])["foreign"] == []


def test_run_census_records_the_sweeps_and_their_foreign_errors(compare, monkeypatch):
    """run_census holds the specs' delta sweeps under "sweeps", and a
    foreign error in a sweep among the specs' foreign errors, with its
    spec.  census.census is stubbed."""
    specs, builders = STUB_SPECS[:2], STUB_SPECS[2:]
    results = [stub_result("converged", sweep="complete", sweep_seconds=0.2, fallbacks=1,
                           sweep_newton_calls=12, sweep_newton_refused=2),
               stub_result("converged", sweep="foreign", sweep_seconds=0.1, fallbacks=0,
                           sweep_newton_calls=3, sweep_newton_refused=1,
                           sweep_error="RuntimeWarning: overflow"),
               stub_result("built")]
    monkeypatch.setattr(compare.census, "sample", lambda: specs)
    monkeypatch.setattr(compare.census, "builder_sample", lambda: builders)
    monkeypatch.setattr(compare.census, "census", lambda checkout, calls: results)
    record = compare.run_census(compare.ROOT)
    assert record["sweeps"] == {"counts": {"complete": 1, "foreign": 1},
                                "newton": {"complete": {"calls": 12, "refused": 2},
                                           "foreign": {"calls": 3, "refused": 1}},
                                "fallbacks": 1}
    assert record["counts"] == {"converged": 2}
    assert record["foreign"] == [{"error": "RuntimeWarning: overflow", "spec": specs[1]}]
    assert record["builders"]["counts"] == {"built": 1} and "sweeps" not in record["builders"]


@pytest.mark.parametrize("foreign_side", [None, "parent", "change"])
def test_compare_records_both_censuses_and_fails_on_a_foreign_error(
        compare, monkeypatch, tmp_path, capsys, foreign_side):
    """Each side's census summary goes into the record under "census", the
    builder calls' under "builders"; a foreign exception or warning in
    either, on either side, makes main exit 1, after the record is
    written.  The census itself is stubbed."""
    parent = write_tree(tmp_path / "parent", {"src/lnlab/__init__.py": "",
                                              "perfbench/run.py": ""})
    sides = {parent.resolve(): "parent", compare.ROOT: "change"}

    def summary(foreign):
        results = [stub_result("converged")] * 3
        if foreign:
            results = results[:2] + [stub_result("foreign", error="ValueError: x")]
        return compare.census.summary(STUB_SPECS, results)

    monkeypatch.setattr(compare, "alternate",
                        lambda *args: {"parent": [{}], "change": [{}]})
    monkeypatch.setattr(compare, "compare_workload", lambda *args: {"end_to_end": {}})
    monkeypatch.setattr(compare, "command_imports", lambda checkout: {})
    for foreign_in in ("specs", "builders"):
        def stub_census(checkout, foreign_in=foreign_in):
            foreign = sides[checkout] == foreign_side
            return {**summary(foreign and foreign_in == "specs"),
                    "builders": summary(foreign and foreign_in == "builders")}

        monkeypatch.setattr(compare, "run_census", stub_census)
        assert compare.main([str(parent)]) == (0 if foreign_side is None else 1)
        record = json.loads(capsys.readouterr().out)
        for side in ("parent", "change"):
            for part, name in ((record["census"][side], "specs"),
                               (record["census"][side]["builders"], "builders")):
                foreign = side == foreign_side and foreign_in == name
                assert part["counts"] == (
                    {"converged": 2, "foreign": 1} if foreign else {"converged": 3})
                assert bool(part["foreign"]) == foreign


@pytest.mark.parametrize("pairs", [5, 1, 0])
def test_compare_refuses_an_uneven_pair_count_before_any_run(compare, tmp_path, pairs):
    """compare alternates which side runs first, so only an even count gives
    both sides the first slot equally often."""
    def no_run(*args):
        raise AssertionError("compare started a run")

    with pytest.raises(ValueError, match=f"positive even number, got {pairs}"):
        compare.alternate(tmp_path, tmp_path, pairs, no_run)


@pytest.mark.parametrize("script", sorted(FOLDED))
def test_pair_counts_are_even(compare, script):
    """The counts that replaced each script's *_PAIRS (and *_ROUNDS) are
    even, for the reason above; a gain needs at least 10 pairs."""
    assert compare.PAIRS >= 10
    counts = {name: getattr(compare, name) for name in FOLDED[script] if name.isupper()}
    assert counts and all(value % 2 == 0 for value in counts.values()), counts


LOWER = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.15}


def test_verdict_on_synthetic_runs(compare):
    parent = [10.0 + 0.1 * i for i in range(10)]

    gain = compare.verdict(LOWER, parent, [v - 2.0 for v in parent])
    assert gain["change_wins"] == 10 and gain["gain"] and not gain["regressed"]
    assert gain["worse_by"] < 0

    slower = compare.verdict(LOWER, parent, [v * 1.2 for v in parent])
    assert slower["change_wins"] == 0 and slower["regressed"] and not slower["gain"]
    assert slower["worse_by"] == pytest.approx(0.2)

    # Ties are wins for neither side.
    tie = compare.verdict(LOWER, parent, list(parent))
    assert tie["change_wins"] == 0 and tie["worse_by"] == 0
    assert not tie["gain"] and not tie["regressed"]

    # Nine wins and one loss in ten is still a gain; eight is not.
    nine = [v - 2.0 for v in parent[:9]] + [parent[9] + 1.0]
    assert compare.verdict(LOWER, parent, nine)["gain"]
    eight = [v - 2.0 for v in parent[:8]] + [v + 1.0 for v in parent[8:]]
    assert not compare.verdict(LOWER, parent, eight)["gain"]

    # ok_frac is higher-is-better: a lower fraction is the regression.
    ok_frac = {"name": "ok_frac", "unit": "frac", "better": "higher", "bound": 0.005}
    ones = [1.0] * 10
    lost = compare.verdict(ok_frac, ones, [0.98] * 10)
    assert lost["regressed"] and lost["worse_by"] == pytest.approx(0.02)
    assert lost["change_wins"] == 0
    kept = compare.verdict(ok_frac, [0.98] * 10, ones)
    assert kept["change_wins"] == 10 and not kept["regressed"]


def test_differing_counts_lists_only_counts_that_moved(compare):
    parent = {"cones.sigma_all.calls": 642, "cones.f_and_grad.rows": 10,
              "solver.evals": 321, "cones.sigma_all.s": 1.0}
    change = dict(parent, **{"cones.sigma_all.s": 0.5, "solver.evals": 300})
    assert compare.differing_counts(parent, change) == {
        "solver.evals": {"parent": 321, "change": 300}}
    del change["cones.f_and_grad.rows"]
    assert compare.differing_counts(parent, change)["cones.f_and_grad.rows"] == {
        "parent": 10, "change": None}


def test_perfbench_runs_record_their_minor_faults(compare, monkeypatch, tmp_path):
    """Each run records the RUSAGE_CHILDREN minor faults it added, and the
    workload record each side's median of them."""
    faults = [5]  # the RUSAGE_CHILDREN count
    host = {"cpu": "x", "nproc": 2, "python": "3", "numpy": "2"}
    result = {"correct": True, "failed": 0, "metrics": {"run_s": {"value": 1.0}}}

    def run(cmd, cwd, **kwargs):
        faults[0] += 100 if cwd.name == "parent" else 10
        return type("done", (), {
            "stdout": f"provenance {json.dumps(host)}\n{json.dumps(result)}\n"})

    monkeypatch.setattr(compare.subprocess, "run", run)
    monkeypatch.setattr(compare.resource, "getrusage",
                        lambda who: type("usage", (), {"ru_minflt": faults[0]}))
    monkeypatch.setattr(compare, "PAIRS", 2)
    bench = {"run_seconds": 1, "end_to_end": [LOWER]}
    record = compare.compare_workload(tmp_path / "parent", tmp_path / "change",
                                      "solve-large", 1, bench)
    assert record["minor_faults"] == {"parent": 100, "change": 10}
    assert [record["traced"][side]["minor_faults"] for side in ("parent", "change")] == [
        100, 10]


def test_stage_probe_runs_every_stage_and_restores_the_iteration_limit(monkeypatch,
                                                                        compare):
    """Every stage gets a time, a wrapped one only if one newton_solve
    iteration calls it (so a renamed solver function fails here), none
    whose name the checkout lacks.  Every newton_solve call comes before
    the first to_csv call, so the whole call is not timed after a CSV is
    made.  The wrapped names hold their functions again after the probe,
    also after one whose iteration raises."""
    from lnlab import solver
    src = str(Path(solver.__file__).parent.parent)
    monkeypatch.setattr(compare, "STAGE_GRIDS", (200,))
    originals = {name: getattr(solver, name) for name in compare.STAGES.values()}
    monkeypatch.setattr(compare, "STAGES", {**compare.STAGES, "gone": "_no_such_stage"})
    calls, solve, to_csv = [], solver.newton_solve, solver.SolveReport.to_csv

    def recorded(name, function):
        def call(*args):
            calls.append(name)
            return function(*args)
        return call

    with monkeypatch.context() as patch:
        patch.setattr(solver, "newton_solve", recorded("newton_solve", solve))
        patch.setattr(solver.SolveReport, "to_csv", recorded("to_csv", to_csv))
        times = compare.stage_times(src)
    first_csv = calls.index("to_csv")
    assert "newton_solve" in calls[:first_csv] and "newton_solve" not in calls[first_csv:]
    stages = ("stencil", "eigenpair", "cone_margin", "f_and_grad", "evaluate",
              "jacobian", "banded_solve", "line_search", "make_report", "to_csv",
              "newton_solve_1_iteration")
    assert sorted(times) == sorted(f"{name},grid=200" for name in stages)
    assert all(math.isfinite(ms) and ms > 0 for ms in times.values())
    originals["_make_report"] = lambda *args: 1 / 0
    monkeypatch.setattr(solver, "_make_report", originals["_make_report"])
    with pytest.raises(ZeroDivisionError):
        compare.stage_times(src)
    assert all(getattr(solver, name) is f for name, f in originals.items())
    assert solver.MAX_NEWTON_ITERATIONS == 60


def test_newton_peak_probe_measures_one_iteration_per_grid(monkeypatch, compare):
    """newton_peaks traces one newton_solve call of one iteration per grid
    and reports its peak in MiB above its start, and in grid arrays the
    peaks of its line-search evaluations, its Jacobian and its banded
    solve (each only if the iteration calls it), and of one tau step per
    ONE_STEP_GRIDS grid.  It leaves the iteration limit, tracemalloc and
    the wrapped names as they were, also when the iteration raises."""
    import tracemalloc
    from lnlab import Ball, solver
    src = str(Path(solver.__file__).parent.parent)
    originals = {name: getattr(solver, name)
                 for name in ("_evaluate", "_analytic_jacobian", "solve_banded")}
    grids = (2000, 4000)
    monkeypatch.setattr(compare, "STAGE_GRIDS", grids)
    monkeypatch.setattr(compare, "ONE_STEP_GRIDS", (3000,))
    solves = []
    solve = solver.newton_solve
    monkeypatch.setattr(solver, "newton_solve",
                        lambda *args: solves.append((args[1], solve(*args))) or solves[-1][1])
    peaks = compare.newton_peaks(src)
    stages = ("trial_evaluate", "jacobian", "banded_solve")
    assert sorted(peaks) == sorted(
        [f"newton_solve_1_iteration,grid={grid}" for grid in grids]
        + [f"{stage},grid={grid},arrays" for stage in stages for grid in grids]
        + ["tau_step,grid=3000,arrays"])
    # Two calls per grid: one for the whole peak, one for the stages'.
    stage_problem = [rep for spec, rep in solves if spec.domain == Ball(1.0)]
    assert [rep.newton_iterations for rep in stage_problem] == [1] * 4
    for grid in grids:
        arrays = peaks[f"newton_solve_1_iteration,grid={grid}"] * 2**20 / (8 * (grid + 1))
        # The iterate, its residual, the step and a trial's stencil at least.
        assert 4 < arrays < 40, (grid, arrays)
        stage_arrays = [peaks[f"{stage},grid={grid},arrays"] for stage in stages]
        # Each stage runs inside the call, and some stage holds its peak; the
        # wrappers around the stages add a few hundred bytes.
        assert all(2 < peak <= arrays + 0.25 for peak in stage_arrays), (stage_arrays,
                                                                          arrays)
        assert max(stage_arrays) > arrays - 1.0, (stage_arrays, arrays)
    spec, step = solves[-1]
    assert (spec.grid, spec.tau, step.converged) == (3000, 0.95, True)
    assert 4 < peaks["tau_step,grid=3000,arrays"] < 40
    with pytest.raises(ZeroDivisionError):
        compare._stage_peaks(solver, lambda: 1 / 0)
    assert all(getattr(solver, name) is f for name, f in originals.items())
    assert solver.MAX_NEWTON_ITERATIONS == 60
    assert not tracemalloc.is_tracing()


def test_stage_times_run_each_grid_in_its_own_interpreter(monkeypatch, compare):
    """run_stage_times starts one probe per grid and merges their times; one
    real probe run times every stage at the one grid it is given."""
    from lnlab import solver
    monkeypatch.setattr(compare, "STAGE_GRIDS", (200, 300))
    probes = []

    def stub_probe(probe, grids):
        probes.append((probe, grids))
        return lambda checkout, round_: {f"stencil,grid={grids[0]}": 1.0}

    with monkeypatch.context() as patch:
        patch.setattr(compare, "run_probe", stub_probe)
        times = compare.run_stage_times(compare.ROOT, 0)
    assert probes == [("stage_times", [200]), ("stage_times", [300])]
    assert times == {"stencil,grid=200": 1.0, "stencil,grid=300": 1.0}
    one = compare.run_probe("stage_times", [200])(
        Path(solver.__file__).parent.parent.parent, 0)
    assert sorted(one) == sorted(f"{stage},grid=200" for stage in (
        *compare.STAGES, "to_csv", "newton_solve_1_iteration"))


def test_peak_medians_are_per_side_medians_over_rounds(compare):
    runs = {"parent": [{"a": 3.0}, {"a": 1.0}, {"a": 2.0}],
            "change": [{"a": 1.0}, {"a": 1.5}, {"a": 0.5}]}
    assert compare.peak_medians(runs) == {
        "a": {"parent_mib": 2.0, "change_mib": 1.0, "saved_mib": 1.0}}
    arrays = {side: [{"b,arrays": value["a"]} for value in values]
              for side, values in runs.items()}
    assert compare.peak_medians(arrays) == {
        "b,arrays": {"parent_arrays": 2.0, "change_arrays": 1.0, "saved_arrays": 1.0}}
    assert compare.stage_medians(runs) == {
        "a": {"parent_ms": 2.0, "change_ms": 1.0, "speedup": 2.0}}
