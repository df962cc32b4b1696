import json
import shutil
import subprocess
import sys

import tracer as tracing
import workloads

ROOT = workloads.ROOT
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_benchmark_json_names_what_the_code_reports():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    emitted = {k: v["unit"] for k, v in
               tracing.Tracer().metrics().items()}
    emitted.update({"trace.op_s_p50": "s", "trace.overhead_s": "s"})
    assert per_layer == emitted
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_one_untraced_run_prints_every_end_to_end_metric():
    proc = run(ROOT, "--workload", "verify", "--seed", "5", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    provenance = json.loads(lines[-2].removeprefix("provenance "))
    assert provenance["seed"] == 5 and provenance["blas_pin"]["OPENBLAS_NUM_THREADS"] == "1"
    assert len(provenance["setup_samples"]) == 5


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "cli-solve", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "src/lnlab" in proc.stderr
