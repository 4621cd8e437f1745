#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build lives in .bench_build/ and is
incremental, so only the first run pays for it. Build output goes to stderr;
stdout belongs to the benchmark, whose last line is the JSON result.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "dsx_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.stderr.write("perfbench: repository sources not found in %s\n" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "--target", "dsx_perfbench", "-j", jobs]]
    # Configure once; later builds re-run it themselves when a CMake input changes.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def main():
    if not build():
        return 2
    # The serving stack reads DSX_* variables (pool size, tuning, tracing,
    # exporters); scrub them so every run measures the same configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DSX_")}
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
