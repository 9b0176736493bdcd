#!/usr/bin/env python3
"""Checks that ambit_serve refuses malformed numbers (run by ctest).

Usage: test_ambit_serve_flags.py <path to ambit_serve>

A numeric option with trailing junk ("1OO", "2x") must not parse as its
leading digits, and neither may the AMBIT_THREADS environment variable
that sets the default worker count: each case must exit 2 and name the
option or variable, and the value, on stderr. stdin is /dev/null, so a
server that wrongly starts serves nothing and exits 0.
"""

import os
import subprocess
import sys

# (arguments, AMBIT_THREADS or None, the name stderr must carry)
CASES = [
    (["--max-connections", "1OO"], None, "--max-connections"),
    (["--workers", "2x"], None, "--workers"),
    (["--slow-request-us", "-5"], None, "--slow-request-us"),
    (["--stdio"], "4294967298", "AMBIT_THREADS"),
    (["--stdio"], "2x", "AMBIT_THREADS"),
    (["--stdio"], "-3", "AMBIT_THREADS"),
    (["--stdio"], "abc", "AMBIT_THREADS"),
]


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for args, threads, name in CASES:
        env = dict(os.environ)
        env.pop("AMBIT_THREADS", None)
        if threads is not None:
            env["AMBIT_THREADS"] = threads
        proc = subprocess.run(
            [sys.argv[1], *args],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
            check=False,
        )
        value = threads if threads is not None else args[-1]
        ok = (proc.returncode == 2 and name in proc.stderr and
              f"'{value}'" in proc.stderr)
        shown = f"AMBIT_THREADS={threads} " if threads is not None else ""
        print(f"{'ok' if ok else 'FAIL'}: {shown}{' '.join(args)} -> exit "
              f"{proc.returncode}, stderr {proc.stderr.strip()!r}")
        failures += 0 if ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
