#!/usr/bin/env python3
"""Build the perfbench command from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload http-binary --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark (see perfbench/main.go). The
build and everything the run writes stay under .bench_build/ in the
checkout: the Go build cache, the binary, WAL directories and span
files. The exit code is the benchmark's; a failed build exits 1.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT = 850  # seconds; a cold build compiles the standard library
RUN_TIMEOUT = 170  # seconds


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, timeout=BUILD_TIMEOUT,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print(f"perfbench: build failed:\n{built.stdout}", file=sys.stderr)
        return 1

    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT} s", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
