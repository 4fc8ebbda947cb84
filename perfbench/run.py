#!/usr/bin/env python3
"""Build the system under test and the benchmark binary, then run one benchmark run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest|reads|fleet --seed N --seconds S --trace 0|1

Builds `fgcs-serve` (root workspace) and `fgcs-perfbench` (this directory's
own workspace) in release mode into $CARGO_TARGET_DIR (default `.bench_build`),
then runs it. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. Spans of traced runs land in `.perfbench_out/`.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (
        os.path.isfile(os.path.join(root, "Cargo.toml"))
        and os.path.isdir(os.path.join(root, "crates", "fgcs-service"))
    ):
        print("perfbench: no repository sources next to perfbench/", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "fgcs-service", "--bin", "fgcs-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "fgcs-perfbench"),
        *sys.argv[1:],
        "--serve",
        os.path.join(release, "fgcs-serve"),
        "--out",
        os.path.join(root, ".perfbench_out"),
    ]
    return subprocess.run(bench, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
