#!/usr/bin/env python3
"""Builds ambit_serve and the perfbench program, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 10 --trace 0

Workloads: classify, bulk (see perfbench/README.md). The build
goes to .bench_build/perfbench (Release); spans, server logs and the
generated circuit go to .bench_build/perfbench/out. The last line of
standard output is the JSON result. Exits 2 when the repository sources
are not next to this directory, 1 when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = BUILD / "out"


def build():
    """Configures once, then brings perfbench and ambit_serve up to date."""
    env = dict(os.environ, CCACHE_DISABLE="1")
    log = open(BUILD / "build.log", "a")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "ambit_serve", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT, env=env) != 0:
            log.close()
            sys.stderr.write((BUILD / "build.log").read_text()[-4000:])
            return False
    log.close()
    return True


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        return subprocess.check_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                       stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["classify", "bulk"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not ((ROOT / "CMakeLists.txt").is_file() and (ROOT / "src").is_dir()
            and (ROOT / "benchmarks" / "data").is_dir()):
        sys.stderr.write("perfbench: the repository sources are not next to "
                         f"{HERE.name}/; nothing to build\n")
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    if not build():
        return 1
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", str(BUILD / "ambit" / "ambit_serve"),
           "--data-dir", str(ROOT / "benchmarks" / "data"),
           "--out-dir", str(OUT), "--git-sha", git_sha()]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
