#!/usr/bin/env python3
"""Build and run the fading-rls end-to-end benchmark.

    python3 perfbench/run.py --workload churn-100k --seed 0 --seconds 20 --trace 0

Run from the repository root. Builds the `perfbench` package (release,
offline) into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs one
workload in one process with the rayon pool pinned to at most two
threads. The last line of standard output is the JSON result; the exit
code is the benchmark's (1 when a correctness check fails).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["churn-100k", "queue-20k", "paper-fig5a"]


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args()


def build(env):
    """Builds the benchmark binary and returns its path (None on failure)."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr: stdout ends with the result line.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        return None
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    return os.path.join(target, "release", "perfbench")


def main():
    args = parse_args()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["RAYON_NUM_THREADS"] = str(min(2, os.cpu_count() or 1))
    binary = build(env)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    sys.stdout.flush()
    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, env=env,
    )
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
