#!/usr/bin/env python3
"""Self-test for scripts/check_concurrency.py (run by ctest).

The concurrency lint is a CI gate; this fixture test keeps the gate
honest. It builds one source tree that obeys every rule and one tree
violating each rule exactly once, runs the real linter as a subprocess
against both (via --root), and verifies that each rule fires where it
must, and stays silent where it must — including the comment/string
and wrapper-layer exemptions.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

LINTER = Path(__file__).resolve().parent / "check_concurrency.py"

CLEAN_TREE = {
    # The wrapper layer itself: the ONE place raw std sync may appear.
    "src/util/mutex.h": """
#include <mutex>
#include <condition_variable>
namespace ambit {
class Mutex {
  std::mutex raw_;
};
class MutexLock {
  std::unique_lock<std::mutex> lock_;
};
}  // namespace ambit
""",
    "src/util/mutex.cpp": """
#include "util/mutex.h"
// std::mutex may appear here too.
""",
    "src/core/thing.cpp": """
// A comment saying std::mutex or .detach() must not fire the lint.
// Nor "parallel_for(MutexLock" inside this comment.
namespace ambit {
const char* label = "std::mutex inside a string literal";
mutable Mutex mutex_{LockRank::kTest};
void sweep(Pool& pool) {
  pool.parallel_for(0, 64, 1, [&](int lo, int hi) {
    record[lo] = hi;  // lock-free chunk body
  });
  const MutexLock lock(mutex_);  // after the call: legal
}
}  // namespace ambit
""",
}

VIOLATIONS = {
    # R1: raw std::mutex outside the wrapper layer.
    "src/serve/bad_sync.cpp": ("naked-std-sync", """
#include <mutex>
std::mutex g_bad;
void touch() { const std::lock_guard<std::mutex> lock(g_bad); }
"""),
    # R2: detached thread.
    "src/serve/bad_detach.cpp": ("thread-detach", """
#include <thread>
void fire() { std::thread([] {}).detach(); }
"""),
    # R3: lock acquisition inside a parallel_for chunk body.
    "src/core/bad_chunk.cpp": ("lock-in-parallel-for", """
void sweep(Pool& pool, Mutex& mutex, int* out) {
  pool.parallel_for(0, 64, 1, [&](int lo, int hi) {
    const MutexLock lock(mutex);
    out[lo] = hi;
  });
}
"""),
    # R4: a Mutex declared without a LockRank.
    "src/core/bad_rank.cpp": ("unranked-mutex", """
#include "util/mutex.h"
namespace ambit {
Mutex g_unranked;
}
"""),
}


def write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def run_linter(root, *flags):
    return subprocess.run(
        [sys.executable, str(LINTER), "--root", str(root), *flags],
        capture_output=True,
        text=True,
        check=False,
    )


def expect(condition, label, result):
    if not condition:
        sys.exit(f"FAIL {label}\nexit={result.returncode}\n"
                 f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}")
    print(f"ok: {label}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        good = Path(tmp) / "good"
        write_tree(good, CLEAN_TREE)
        result = run_linter(good)
        expect(result.returncode == 0 and "0 findings" in result.stdout,
               "clean tree passes (wrapper-layer and comment/string "
               "exemptions hold)", result)

        bad = Path(tmp) / "bad"
        write_tree(bad, CLEAN_TREE)
        write_tree(bad, {rel: text for rel, (_, text) in VIOLATIONS.items()})
        result = run_linter(bad)
        expect(result.returncode == 1, "violating tree fails", result)
        for rel, (rule, _) in VIOLATIONS.items():
            expect(f"{rel}: [{rule}]" in result.stderr
                   or f"[{rule}]" in result.stderr and rel in result.stderr,
                   f"rule {rule} fires on {rel}", result)
        clean_names = "\n".join(CLEAN_TREE)
        expect("src/core/thing.cpp" not in result.stderr,
               f"no false positives among clean files ({clean_names!r})",
               result)

    print("check_concurrency self-test: all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
