#!/usr/bin/env python3
"""Build and run the study benchmark.

Run from the repository root:

    python3 studybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds tsp-studybench (CMake, Release, from this directory's CMakeLists.txt
and the repository's src/) into $CARGO_TARGET_DIR, default .bench_build,
then runs it with the same arguments. Build output goes to standard error;
the last line of standard output is the benchmark's result JSON. The exit
code is the build's when it fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure once, then bring the binary up to date."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "tsp-studybench",
         "-j", str(min(os.cpu_count() or 1, 4))],
        stdout=sys.stderr, check=True)


def main():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"studybench: build failed: {err}", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "tsp-studybench")
    workdir = os.path.join(build_dir, "work")
    return subprocess.run([binary, *sys.argv[1:], "--workdir", workdir]).returncode


if __name__ == "__main__":
    sys.exit(main())
