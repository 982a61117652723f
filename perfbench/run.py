#!/usr/bin/env python3
"""Build rextract and the benchmark from source, then run one workload.

Usage (from the root of a rextract checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default: .bench_build). Build output
goes to stderr; the benchmark's result is the last line of stdout.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "crates", "cli", "Cargo.toml")):
        print("perfbench: run me from the root of a rextract checkout", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "rextract-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    args = sys.argv[1:] + [
        "--rextract", os.path.join(release, "rextract"),
        "--work", os.path.join(target, "perfbench"),
    ]
    sys.stdout.flush()
    os.execv(bench, [bench] + args)


if __name__ == "__main__":
    sys.exit(main())
