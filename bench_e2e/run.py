#!/usr/bin/env python3
"""Build bench_e2e from source and run it.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else to .bench_build. Build output goes to stderr, so the last line on stdout
stays the benchmark's JSON result. All arguments are passed on to bench_e2e.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print(f"bench_e2e: the checker sources (src/) are missing next to {here}", file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(
        ["cmake", "--build", build, "-j", "4", "--target", "bench_e2e", "bench_e2e_traced"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("bench_e2e: build failed: " + " ".join(step), file=sys.stderr)
            return 2
    return subprocess.run([os.path.join(build, "bench_e2e")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
