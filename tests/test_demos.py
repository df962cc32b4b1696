"""The demos run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["cone_geometry_tour", "barrier_and_certificates",
                                  "continuation_run"])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
