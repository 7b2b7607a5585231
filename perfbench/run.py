#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
the simulator libraries and the perfbench program (Release) under
.bench_build/perfbench; later calls only re-check the build. Build
output goes to stderr, so the last line of stdout is perfbench's JSON
result. Exits non-zero, printing no result, when the build or any
output check fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
JOBS = "4"


def build(target):
    if not (BUILD / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", target, "-j", JOBS],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / target


def main(argv):
    target = "perfbench_selftest" if argv == ["--self-test"] else "perfbench"
    try:
        binary = build(target)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    args = [] if target == "perfbench_selftest" else argv
    sys.stdout.flush()
    return subprocess.run([str(binary), *args], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
