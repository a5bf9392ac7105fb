#!/usr/bin/env python3
"""Build the procsim benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload paper_mesh --seed 1 --seconds 25 --trace 0

Every argument is passed on to the benchmark binary (see README.md).
The build goes to $CARGO_TARGET_DIR, or `.bench_build` when unset; the
benchmark writes its generated inputs and span lists under it too.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "procsim_perfbench")
    return subprocess.run([binary, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
