#!/usr/bin/env python3
"""Run clang-tidy over the repository and fail on any finding.

Drives clang-tidy (configured by the checked-in .clang-tidy) across
every first-party translation unit in a build tree's
compile_commands.json, normalizes the findings, and exits 1 if there
is any: this is the CI gate, and it means "zero findings". A finding is
fixed, not listed.

Usage:
    scripts/run_clang_tidy.py --build-dir build [--jobs N]

Requires clang-tidy (any version with the configured checks); the
build tree must have been configured with CMAKE_EXPORT_COMPILE_COMMANDS
(the top-level CMakeLists.txt always sets it).
"""

import argparse
import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories whose translation units we own (relative to the repo
# root). Everything else in compile_commands.json — fetched googletest,
# generated sources — is not ours to lint.
FIRST_PARTY_DIRS = ("src", "fuzz", "tests", "tools", "bench")

# "path:line:col: warning: message [check-name]"
FINDING_RE = re.compile(
    r"^(?P<path>[^\s:][^:]*):(?P<line>\d+):\d+:\s+"
    r"(?:warning|error):\s+(?P<message>.*?)\s+\[(?P<check>[^\]]+)\]\s*$"
)


def first_party_sources(build_dir):
    """The repo-owned .cpp files listed in compile_commands.json."""
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(db_path):
        sys.exit(f"error: {db_path} not found (configure the build first)")
    with open(db_path, encoding="utf-8") as db:
        entries = json.load(db)
    sources = set()
    for entry in entries:
        path = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"])
        )
        rel = os.path.relpath(path, REPO)
        if rel.startswith("..") or not rel.split(os.sep, 1)[0] in FIRST_PARTY_DIRS:
            continue
        sources.add(path)
    return sorted(sources)


def run_one(clang_tidy, build_dir, source):
    """Runs clang-tidy on one file; returns normalized finding keys."""
    proc = subprocess.run(
        [clang_tidy, "-p", build_dir, "--quiet", source],
        capture_output=True,
        text=True,
        check=False,
    )
    findings = set()
    for line in proc.stdout.splitlines():
        match = FINDING_RE.match(line)
        if not match:
            continue
        path = os.path.normpath(match.group("path"))
        if os.path.isabs(path):
            rel = os.path.relpath(path, REPO)
            if rel.startswith(".."):
                continue  # finding in a system or fetched header
            path = rel
        findings.add(f"{path.replace(os.sep, '/')}: [{match.group('check')}]")
    # clang-tidy exits non-zero on hard errors (missing headers, bad
    # flags) without necessarily printing a [check] line — surface that
    # rather than silently passing the file.
    broken = proc.returncode != 0 and not findings
    return findings, proc.stderr if broken else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", required=True,
                        help="build tree with compile_commands.json")
    parser.add_argument("--clang-tidy", default="clang-tidy",
                        help="clang-tidy executable (default: clang-tidy)")
    parser.add_argument("--jobs", type=int,
                        default=max(os.cpu_count() or 1, 1),
                        help="parallel clang-tidy processes")
    args = parser.parse_args()

    if shutil.which(args.clang_tidy) is None:
        sys.exit(f"error: {args.clang_tidy} not found on PATH")

    sources = first_party_sources(args.build_dir)
    if not sources:
        sys.exit("error: no first-party sources in compile_commands.json")
    print(f"clang-tidy over {len(sources)} translation units "
          f"({args.jobs} jobs)")

    findings = set()
    errors = []
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        futures = {
            pool.submit(run_one, args.clang_tidy, args.build_dir, src): src
            for src in sources
        }
        for future in concurrent.futures.as_completed(futures):
            file_findings, error = future.result()
            findings |= file_findings
            if error:
                errors.append((futures[future], error))

    if errors:
        for source, error in errors:
            rel = os.path.relpath(source, REPO)
            print(f"error: clang-tidy failed on {rel}:\n{error}",
                  file=sys.stderr)
        return 1

    if findings:
        print(f"\n{len(findings)} clang-tidy finding(s):", file=sys.stderr)
        for finding in sorted(findings):
            print(f"  {finding}", file=sys.stderr)
        return 1
    print("clang-tidy clean (0 findings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
