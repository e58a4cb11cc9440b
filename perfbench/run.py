#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload campaign|web --seed N \
        --seconds S --trace 0|1

Builds perfbench/sgbench.exe with dune (the first build compiles the
whole repository), then runs it with the same arguments plus the pinned
output digests. The benchmark's standard output is passed through; its
last line is the JSON result. Exits 2 without a result when the checkout
holds no repository to build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "sgbench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["campaign", "web"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("run.py: no repository to build at " + ROOT, file=sys.stderr)
        return 2

    # the shared dune cache lives outside the checkout; keep it off so the
    # build writes nothing but the checkout's _build
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/sgbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--pins", os.path.join(HERE, "pinned.txt")],
        cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
