#!/usr/bin/env python3
"""Build and run the simulator benchmark.

usage: python3 perfbench/run.py --workload <runtime|host-trace>
                                [--seed N] [--seconds S] [--trace 0|1]

Builds the `ndpx-perfbench` package (release, offline, into
`$CARGO_TARGET_DIR` or `perfbench/target`), then runs it from the
repository root with the given arguments. The last line of its output is the JSON result. Exits
non-zero without a result when the simulator's sources are missing or the
build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "bench", "Cargo.toml")):
        print("perfbench: the simulator sources (crates/) are missing", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build output goes to stderr: stdout ends with the JSON result.
    built = subprocess.run(build, env=env, stdout=sys.stderr, check=False)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    exe = os.path.join(target, "release", "ndpx-perfbench")
    ran = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, check=False)
    return ran.returncode if ran.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
