#!/usr/bin/env python3
"""Checks that a truncated bulk frame costs only the bytes it carried (run by ctest).

Usage: test_ambit_serve_truncated_frame.py <path to ambit_serve>

Starts `ambit_serve --tcp 127.0.0.1:0` and sends a header that declares
the largest payload the protocol admits (16,777,216 words, 128 MiB), then
8 payload bytes, then EOF. The server must close the connection without
a response, and its peak resident set (VmHWM) must stay under 32 MiB: a
header alone may not make the server allocate or touch the memory it
declares. Linux only (it reads /proc/<pid>/status).
"""

import re
import socket
import subprocess
import sys
import threading
import time

HEADER = b"EVALB nosuch 1 16777216\n"
LIMIT_MIB = 32


def vm_hwm_mib(pid):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc status")


def read_port(proc, deadline):
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        match = re.search(r"ambit_serve: tcp bound port (\d+)", line)
        if match:
            return int(match.group(1))
    return None


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    proc = subprocess.Popen([sys.argv[1], "--tcp", "127.0.0.1:0"],
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        port = read_port(proc, time.monotonic() + 30)
        if port is None:
            print("FAIL: ambit_serve did not announce its port", file=sys.stderr)
            return 1
        # Keep the log pipe drained while the server runs.
        threading.Thread(target=proc.stderr.read, daemon=True).start()
        before = vm_hwm_mib(proc.pid)

        with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
            conn.sendall(HEADER + b"\x01" * 8)
            conn.shutdown(socket.SHUT_WR)
            response = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                response += chunk
        after = vm_hwm_mib(proc.pid)

        with socket.create_connection(("127.0.0.1", port), timeout=30) as ctl:
            ctl.sendall(b"SHUTDOWN\n")
            ctl.recv(4096)
        proc.wait(timeout=30)

        ok_response = response == b""
        ok_memory = after < LIMIT_MIB
        print(f"{'ok' if ok_response else 'FAIL'}: response to the truncated "
              f"frame: {response[:80]!r} (expected none)")
        print(f"{'ok' if ok_memory else 'FAIL'}: VmHWM {before:.1f} -> "
              f"{after:.1f} MiB (limit {LIMIT_MIB} MiB)")
        return 0 if ok_response and ok_memory else 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
