#!/usr/bin/env python3
"""Build mtvd and the mtvbench client from this checkout, then run one
benchmark workload.

    python3 perfbench/run.py --workload cold-figures --seed 1 \
        --seconds 15 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); daemons run in .bench_run/ and traced runs
write their spans to .bench_out/. Build output goes to standard error,
so the last line of standard output is the client's JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("cold-figures", "warm-figures")
# A run measures --seconds plus its set-up; anything far beyond that
# means a daemon stopped answering.
RUN_TIMEOUT_S = 170


def build(build_dir):
    here = os.path.dirname(os.path.abspath(__file__))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir,
                  "--target", "mtvd", "mtvbench", "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr) != 0:
            return False
    return True


def reap(client):
    """Kill whatever the client left in its process group (the client
    too, after a timeout) and wait until every member has exited."""
    try:
        os.killpg(client.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    client.wait()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.killpg(client.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(root, ".bench_run",
                           "%s-%d" % (args.workload, os.getpid()))
    command = [
        os.path.join(build_dir, "mtvbench"),
        "--mtvd", os.path.join(build_dir, "mtv", "mtvd"),
        "--workdir", workdir,
        "--outdir", os.path.join(root, ".bench_out"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    client = subprocess.Popen(command, start_new_session=True)
    try:
        status = client.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        status = 1
    finally:
        reap(client)
        shutil.rmtree(workdir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
