#!/usr/bin/env python3
"""Build and run the SUNMAP end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (the SUNMAP library from src/ plus the
benchmark program) under $CARGO_TARGET_DIR/perfbench (default .bench_build),
then runs the program with the same arguments. Build output goes to stderr;
the program's last stdout line is the JSON result. Exits with the program's
exit code, or 3 when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", directory, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    directory = build_dir()
    if not build(directory):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(directory, "sunmap_perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
