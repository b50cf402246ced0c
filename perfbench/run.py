#!/usr/bin/env python3
"""Builds the checker and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload check_batch --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds `duop` (the program under test)
from the repository's workspace and the `perfbench` binary from
`perfbench/Cargo.toml`, both offline, into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs that binary. Its last line of standard output
is the result object; its exit code is passed through. Scratch files
live under `.perfbench_work/` and are removed after the run; the traced
run's spans are kept in `.perfbench_work/spans-<workload>-seed<N>.jsonl`.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def build(target):
    """Builds `duop` and the `perfbench` binary; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "cli")
    ):
        fail("the checker's sources (Cargo.toml, crates/) are not next to perfbench/")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "duop-cli", "--bin", "duop"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo's output goes to stderr; stdout is reserved for the result.
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return (os.path.join(target, "release", "duop"),
            os.path.join(target, "release", "perfbench"))


def main():
    args = sys.argv[1:]
    opts = dict(zip(args[::2], args[1::2]))
    if len(args) % 2 or not {"--workload", "--seed", "--seconds"} <= opts.keys():
        fail("usage: run.py --workload NAME --seed N --seconds S [--trace 0|1]")
    if not opts["--seed"].isdigit() or not opts["--workload"].replace("_", "").isalnum():
        fail("--seed takes a whole number and --workload a workload name")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    duop, perfbench = build(target)

    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans = os.path.join(
        work_root, f"spans-{opts['--workload']}-seed{opts['--seed']}.jsonl")
    cmd = [perfbench, *args, "--duop", duop, "--work", work, "--spans", spans]
    try:
        # perfbench starts and stops every process it uses (daemons,
        # shard coordinators and workers) and waits for each to exit.
        r = subprocess.run(cmd, cwd=ROOT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
