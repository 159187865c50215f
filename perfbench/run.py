#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe and the causalb libraries it links with
dune (build output goes to stderr), then runs it with the arguments
given plus the processor count for the run record.  The last line of
stdout is the benchmark's JSON result.  Exits non-zero, printing no
result, when the build fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    # keep every build artefact inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    nproc = len(os.sched_getaffinity(0))
    return subprocess.run([EXE, *sys.argv[1:], "--nproc", str(nproc)]).returncode


if __name__ == "__main__":
    sys.exit(main())
