#!/usr/bin/env python3
"""Build the simulator from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The workload run prints its metrics and, as its last line, one JSON
object; see perfbench/NOTES.md.  Build output goes to standard error so
that standard output holds only the benchmark's report.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def main(argv):
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"run.py: {need} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    selftest = argv == ["--selftest"]
    target = "perfbench/selftest.exe" if selftest else "perfbench/main.exe"
    build = subprocess.run(["dune", "build", "--root", ROOT, "./" + target],
                           cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", target)
    args = [ROOT] if selftest else argv
    try:
        return subprocess.run([exe] + args, cwd=ROOT,
                              timeout=None if selftest else RUN_TIMEOUT_S
                              ).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
