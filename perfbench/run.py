#!/usr/bin/env python3
"""Build and run spybox's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload covert --seed 7 --seconds 10 --trace 0

The benchmark (a Go program in this directory) is built from the source
tree into .bench_build/, with the Go build cache and temporary files kept
there too, and then run with the same arguments. The last line of standard output is the
result; see README.md. The exit code is the benchmark's, or 1 when it
cannot be built.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Everything the go command writes, telemetry included, stays in
    # BUILD.
    env.update(
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
        GOWORK="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no spybox source tree at %s" % ROOT, file=sys.stderr)
        return 1
    if shutil.which("go") is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
