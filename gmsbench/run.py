"""Runs one benchmark workload and prints its result as the last line.

    python3 gmsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark first if the sources changed (see build.py), then runs
gmsbench.Main in one JVM with Spark local[N], N = min(4, cores). The last
line of standard output is the JSON result; Spark logs go to standard error.
Everything the run writes stays under .bench_build/ at the repository root.
"""
import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

# A run has 180 s; the JVM gets what is left after start-up of this script.
JVM_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    a = p.parse_args()

    cmd = build.bench_command(build.build(), [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("gmsbench: run exceeded %d s" % JVM_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    results = [l for l in lines if l.startswith('{"correct"')]
    for line in lines:
        if line not in results:
            print(line)
    if proc.returncode != 0 or not results:
        sys.exit(proc.returncode or 1)
    print(results[-1])


if __name__ == "__main__":
    main()
