#!/usr/bin/env python3
"""Builds and runs PACO's end-to-end benchmark.

Run from the root of a PACO checkout:

    python3 perfbench/run.py --workload compile|run|recover|serve \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (and with it the
libraries under src/) into .bench_build/perfbench; later calls only check
that the build is up to date. The benchmark's own output goes to stdout,
whose last line is the JSON result; build output goes to stderr. Traced
runs write a Chrome trace into .bench_out/.

--selftest checks the max-flow oracle on hand-built networks and the
order-free render comparison on hand-written lines, and checks that a run
with one injected wrong answer (a session output, a dispatch answer, a
cost value) exits nonzero.
"""

import argparse
import fcntl
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "paco_perfbench")
WORKLOADS = ("compile", "run", "recover", "serve")
# A run measures for --seconds, then checks its outputs; none needs more.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no PACO sources at %s (run from a checkout)" % ROOT)
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "paco_perfbench",
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
                fail("build step failed: " + " ".join(step))


def run_benchmark(args):
    """Runs the binary; returns its exit code (stdout passes through)."""
    os.makedirs(OUT, exist_ok=True)
    sys.stdout.flush()
    launch = time.monotonic()
    try:
        return subprocess.run(
            [BINARY] + args + ["--data-dir", HERE, "--out-dir", OUT,
                               "--launch-time", repr(launch)],
            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


def selftest():
    if subprocess.run([BINARY, "--selftest"]).returncode != 0:
        print("selftest: max-flow or render oracle FAILED", file=sys.stderr)
        return 1
    print("selftest: max-flow and render oracles ok")
    status = 0
    for workload, inject in (("run", "session"), ("serve", "dispatch"),
                             ("compile", "cost")):
        result = subprocess.run(
            [BINARY, "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", "0", "--data-dir", HERE, "--out-dir", OUT,
             "--inject", inject],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
        caught = result.returncode == 1 and "MISMATCH" in result.stderr
        print("selftest: injected wrong %s on %s %s" %
              (inject, workload, "caught" if caught else "NOT CAUGHT"))
        status |= 0 if caught else 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None or
                              args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    build()
    if args.selftest:
        sys.exit(selftest())
    sys.exit(run_benchmark(["--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", repr(args.seconds),
                            "--trace", args.trace]))


if __name__ == "__main__":
    main()
