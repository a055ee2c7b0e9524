#!/usr/bin/env python3
"""Build the benchmark and run one workload in a child process of its own.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark package is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build at the repository
root); the arguments go to its binary unchanged, whose standard output ends
with the result as one JSON object. Build output goes to standard error.
Exits non-zero without a result when the build or the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

# The first run in a fresh checkout compiles the workspace crates.
BUILD_TIMEOUT_S = 850
# A run measures for --seconds plus set-up; this bounds a wedged one.
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(REPO, ".bench_build"))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print(f"perfbench: build failed with exit code {built.returncode}", file=sys.stderr)
        return 1
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    try:
        # A session of its own, so a timeout also stops the processes the
        # workload starts.
        run = subprocess.Popen([binary, *sys.argv[1:]], start_new_session=True)
    except OSError as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        print(f"perfbench: run killed after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
