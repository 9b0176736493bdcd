#!/usr/bin/env python3
"""Repo-specific concurrency lint: lock discipline the compilers can't see.

Clang Thread Safety Analysis (the CI thread-safety job) checks that
annotated locks are HELD where required; this lint checks the rules
that make the annotation layer airtight in the first place, across
every first-party C++ file:

  R1 naked-std-sync      std::mutex / std::lock_guard / std::unique_lock /
                         std::scoped_lock / std::condition_variable (and
                         the recursive/timed/shared variants) appear only
                         in src/util/mutex.h + src/util/mutex.cpp — all
                         other code must use the annotated, ranked
                         ambit::Mutex family, or TSA and the lock-order
                         detector are blind to it.
  R2 thread-detach       no .detach() anywhere: a detached thread
                         outlives every shutdown path and invalidates
                         the serve join-all contract.
  R3 lock-in-parallel-for  no lock acquisition (MutexLock, lock_guard,
                         unique_lock, scoped_lock, .lock()) inside the
                         argument list of a parallel_for call site:
                         chunk bodies run on pool workers, and a lock
                         taken per chunk serializes the sweep at best
                         and deadlocks against a lock-holding caller at
                         worst. Record through atomics and reduce after
                         the join instead.
  R4 unranked-mutex      every `Mutex name...;` declaration names a
                         LockRank:: in its initializer — a mutex outside
                         the documented hierarchy (docs/CONCURRENCY.md)
                         can't be order-checked.

Any finding fails the run (exit 1), as scripts/run_clang_tidy.py
fails on any clang-tidy finding: a finding is fixed, not listed.

Usage:
    scripts/check_concurrency.py [--build-dir build]

--build-dir is optional: the file set is discovered by walking the
first-party directories, and a build tree's compile_commands.json only
ADDS translation units (e.g. generated sources) that the walk missed.
"""

import argparse
import json
import os
import re
import sys

DEFAULT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories whose C++ files we own (relative to the repo root) —
# same set as scripts/run_clang_tidy.py.
FIRST_PARTY_DIRS = ("src", "fuzz", "tests", "tools", "bench")
CXX_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc")

# The ONLY files allowed to touch the raw std synchronization types:
# the annotated wrapper layer itself.
RAW_SYNC_ALLOWED = ("src/util/mutex.h", "src/util/mutex.cpp")

RAW_SYNC_RE = re.compile(
    r"std\s*::\s*(?:recursive_|timed_|recursive_timed_|shared_|shared_timed_)?"
    r"(?:mutex|lock_guard|unique_lock|scoped_lock|condition_variable(?:_any)?)\b"
)
DETACH_RE = re.compile(r"\.\s*detach\s*\(")
PARALLEL_FOR_RE = re.compile(r"\bparallel_for\s*\(")
LOCK_IN_CHUNK_RE = re.compile(
    r"\bMutexLock\b|\block_guard\b|\bunique_lock\b|\bscoped_lock\b"
    r"|\.\s*lock\s*\("
)
# `Mutex` followed by an identifier is a declaration ("MutexLock x" does
# not match: no whitespace after "Mutex"). References, pointers, and
# parameters ("const Mutex&", "Mutex*") don't match either.
MUTEX_DECL_RE = re.compile(r"\bMutex\s+\w+")


def blank_comments_and_strings(text):
    """Replaces comment/string/char-literal bodies with spaces.

    Keeps every newline (line numbers survive) and the overall length,
    so regex matches land on real code only.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif ch == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append(text[i] if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif ch in "\"'":
            quote = ch
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append(text[i] if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def argument_span(code, open_paren):
    """[start, end) of the argument list starting at code[open_paren]."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return open_paren + 1, i
    return open_paren + 1, len(code)  # unbalanced: scan to EOF


def line_of(code, offset):
    return code.count("\n", 0, offset) + 1


def check_file(rel_path, text):
    """Yields (rule, line, message) findings for one file."""
    code = blank_comments_and_strings(text)
    posix = rel_path.replace(os.sep, "/")

    if posix not in RAW_SYNC_ALLOWED:
        for match in RAW_SYNC_RE.finditer(code):
            yield ("naked-std-sync", line_of(code, match.start()),
                   f"{match.group(0)} outside src/util/mutex.*: use the "
                   "annotated ambit::Mutex/MutexLock/CondVar layer "
                   "(util/mutex.h)")

    for match in DETACH_RE.finditer(code):
        yield ("thread-detach", line_of(code, match.start()),
               ".detach() breaks the join-all shutdown contract; keep the "
               "handle and join it")

    for match in PARALLEL_FOR_RE.finditer(code):
        begin, end = argument_span(code, match.end() - 1)
        args = code[begin:end]
        lock = LOCK_IN_CHUNK_RE.search(args)
        if lock:
            yield ("lock-in-parallel-for", line_of(code, begin + lock.start()),
                   "lock acquisition inside a parallel_for argument (chunk "
                   "bodies run on pool workers): record through atomics and "
                   "reduce after the join")

    for match in MUTEX_DECL_RE.finditer(code):
        stmt_end = code.find(";", match.start())
        stmt = code[match.start():stmt_end if stmt_end != -1 else len(code)]
        if "LockRank::" not in stmt:
            yield ("unranked-mutex", line_of(code, match.start()),
                   f"`{match.group(0)}` declares no LockRank — every mutex "
                   "joins the documented hierarchy (docs/CONCURRENCY.md)")


def discover_files(repo, build_dir):
    files = set()
    for top in FIRST_PARTY_DIRS:
        top_abs = os.path.join(repo, top)
        for root, _dirs, names in os.walk(top_abs):
            for name in names:
                if name.endswith(CXX_EXTENSIONS):
                    files.add(os.path.join(root, name))
    if build_dir:
        db_path = os.path.join(build_dir, "compile_commands.json")
        if not os.path.exists(db_path):
            sys.exit(f"error: {db_path} not found (configure the build first)")
        with open(db_path, encoding="utf-8") as db:
            for entry in json.load(db):
                path = os.path.normpath(
                    os.path.join(entry.get("directory", ""), entry["file"]))
                rel = os.path.relpath(path, repo)
                if rel.startswith(".."):
                    continue
                if rel.split(os.sep, 1)[0] in FIRST_PARTY_DIRS:
                    files.add(path)
    return sorted(files)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir",
                        help="build tree whose compile_commands.json extends "
                             "the scanned file set")
    parser.add_argument("--root", default=DEFAULT_ROOT,
                        help="repository root to scan (default: the repo "
                             "this script lives in; overridden by the "
                             "self-test's fixture trees)")
    args = parser.parse_args()
    repo = os.path.abspath(args.root)

    files = discover_files(repo, args.build_dir)
    if not files:
        sys.exit("error: no first-party C++ files found")

    findings = []
    for path in files:
        rel = os.path.relpath(path, repo).replace(os.sep, "/")
        with open(path, encoding="utf-8") as source:
            text = source.read()
        for rule, line, message in check_file(os.path.relpath(path, repo),
                                              text):
            findings.append(f"{rel}:{line}: [{rule}] {message}")

    if findings:
        print(f"\n{len(findings)} concurrency-lint finding(s):",
              file=sys.stderr)
        for finding in sorted(findings):
            print(f"  {finding}", file=sys.stderr)
        return 1
    print(f"concurrency lint clean over {len(files)} files (0 findings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
