#!/usr/bin/env python3
"""Checks that ambit_serve refuses malformed numeric options (run by ctest).

Usage: test_ambit_serve_flags.py <path to ambit_serve>

A value with trailing junk ("1OO", "2x") must not parse as its leading
digits: each case must exit 2 and name the option on stderr. stdin is
/dev/null, so a server that wrongly starts serves nothing and exits 0.
"""

import subprocess
import sys

CASES = [
    ["--max-connections", "1OO"],
    ["--workers", "2x"],
    ["--slow-request-us", "-5"],
]


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for args in CASES:
        proc = subprocess.run(
            [sys.argv[1], *args],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
        ok = proc.returncode == 2 and args[0] in proc.stderr
        print(f"{'ok' if ok else 'FAIL'}: {' '.join(args)} -> exit "
              f"{proc.returncode}, stderr {proc.stderr.strip()!r}")
        failures += 0 if ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
