#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload serve-miss --seed 1 --seconds 40 --trace 0

The Go build cache, the binary, snapshots, spill files and span output
all live under .bench_build/ at the repository root. Arguments are
passed to the benchmark binary unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    return env


def main():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    # exec, not a child process: the benchmark is the only process left
    # and its exit code is this command's.
    os.execve(binary, [binary, "-workdir", BUILD] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
