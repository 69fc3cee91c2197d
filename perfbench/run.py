#!/usr/bin/env python3
"""Builds the benchmark from source and runs one invocation of it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The arguments pass through to the benchmark binary unchanged; see
perfbench/README.md for the workloads and metrics.  Cargo's build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result.  The build honours CARGO_TARGET_DIR and defaults
to perfbench/target.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "chiaroscuro_perfbench")
    return subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
