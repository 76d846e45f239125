"""Runs the benchmark's own tests on test-size workloads.

    python3 gmsbench/test.py

Builds the benchmark with gmsbench/test (see build.py) and runs
gmsbench.SelfTest, which checks the metric names and units against
BENCHMARK.json, failure counting, span arithmetic, and that generated inputs
depend on the seed but not on the core count. Exits 1 if a test fails.
"""
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

if __name__ == "__main__":
    build_dir = build.build(tests=True)
    cmd = build.java_command(build_dir, "gmsbench.SelfTest",
                             [os.path.join(build.ROOT, "BENCHMARK.json"), build.WORK])
    sys.exit(subprocess.run(cmd).returncode)
