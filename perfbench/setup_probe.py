"""Set-up probe for run.py: a fresh interpreter that pays the benchmark's
start-up (run.py's imports, lnlab with numpy and scipy, input generation)
and prints "ready" where the first op would start.

    python3 perfbench/setup_probe.py <workload> <seed> <seconds>
"""

import sys

import run

run.workloads.load_lnlab()
run.workloads.make_ops(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
print("ready", flush=True)
