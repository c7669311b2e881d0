#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fork-tree --seed 1 --seconds 20 --trace 0

Every argument is passed to the program (see perfbench/README.md). The
build, and the Go toolchain's caches and settings, are kept under
.bench_build in the current directory, so the run reads and writes only
inside the checkout. The program's exit code is the script's; a failed
build exits non-zero before anything is printed to standard output.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        # Keep the toolchain's configuration and telemetry files inside
        # the checkout too.
        HOME=build,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
