#!/usr/bin/env python3
"""Build facile and the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot-stdio|cold-tcp|batch \
        --seed N --seconds S --trace 0|1

The last line of standard output is the JSON result (end-to-end
metrics with --trace 0, per-layer metrics with --trace 1); the lines
before it are the human-readable report, build output goes to standard
error.  Everything written stays inside the checkout: the release
build in .bench_build/ and the generated inputs in .bench_work/, which
is removed again when the run ends.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD = ".bench_build"
WORK = ".bench_work"
# The benchmark's own budget per run, after the build.
RUN_TIMEOUT_S = 170


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    if not all(os.path.exists(p) for p in ("dune-project", "bin/facile.ml", "lib")):
        print("perfbench: not the root of a facile checkout (no dune-project, bin/facile.ml, lib)",
              file=sys.stderr)
        return 2
    tool = dune()
    if tool is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        tool + ["build", "--root", ".", "--profile", "release", "--build-dir", BUILD,
                "./bin/facile.exe", "./perfbench/bench.exe"],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    work = os.path.join(WORK, str(os.getpid()))
    os.makedirs(WORK, exist_ok=True)
    exe = os.path.join(BUILD, "default")
    cmd = [os.path.join(exe, "perfbench", "bench.exe"), *sys.argv[1:],
           "--facile", os.path.join(exe, "bin", "facile.exe"), "--work", work]
    sys.stdout.flush()
    # its own process group, so a timeout takes every facile it started with it
    bench = subprocess.Popen(cmd, start_new_session=True, stdin=subprocess.DEVNULL)
    try:
        rc = bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        rc = 124
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass
    return rc


if __name__ == "__main__":
    sys.exit(main())
