#!/usr/bin/env python3
"""Build the release urs-server and the perfbench binary, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold-distinct --seed 1 --seconds 25 --trace 0

Builds go to $CARGO_TARGET_DIR (default `.bench_build`).  All build output goes
to standard error; the last line of standard output is the benchmark's JSON
result.  Exits non-zero without a result when the repository's sources are not
present next to this directory or any step fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark run proper, after the builds; a hung run is killed well before
# the three-minute limit.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(*args):
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed")


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "server", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"the repository sources are missing ({needed} not found)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    cargo_build("-p", "urs-server")
    cargo_build("--manifest-path", os.path.join(HERE, "Cargo.toml"))

    command = [
        os.path.join(target, "release", "perfbench"),
        "--server",
        os.path.join(target, "release", "urs-server"),
        *sys.argv[1:],
    ]
    # A session of its own, so a timeout takes the servers it started down too.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
