#!/usr/bin/env python3
"""Captures the serve golden transcripts under tests/data/serve_golden/.

Each <name>.in holds the bytes one client connection sends; <name>.out
holds what a fresh `ambit_serve --socket` process answers on that
connection, with the load time in every `OK loaded` line replaced by
"T" (the one wall-clock value in the protocol). serve_test's
ServeGoldenTest replays every pair through serve_unix, serve_chunks
and serve_stream, so the transcripts pin the wire behaviour of the
whole serve layer independently of the code that produces it.

The .in files are derived, never hand-edited:

  * ident_*: three connections covering every response shape — text OK
    and ERR lines, both binary bulk frames, an unframed bulk header
    that drops the connection, and a residual line served at clean EOF;
  * corpus_* / regression_*: the wire bytes of every fuzz_serve_stream
    corpus and regression input, with the "CHNK" chunking prefix
    stripped.

LOAD paths are placeholders the replaying side fills in: @SAMPLE_PLA@
(3 inputs, 2 outputs) and @SEED_PLA@ (the fuzz harness's 2-input XOR
seed). Re-run after an intentional protocol change:

  scripts/capture_serve_golden.py build/ambit_serve
"""

import os
import re
import socket
import struct
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO, "tests", "data", "serve_golden")
FUZZ_DIRS = [
    ("corpus", os.path.join(REPO, "fuzz", "corpus", "fuzz_serve_stream")),
    ("regression", os.path.join(REPO, "tests", "data", "fuzz_regressions",
                                "fuzz_serve_stream")),
]

# Kept byte-identical with the texts ServeGoldenTest writes.
SAMPLE_PLA = b".i 3\n.o 2\n11- 10\n0-1 01\n10- 11\n.e\n"
SEED_PLA = b".i 2\n.o 1\n10 1\n01 1\n.e\n"
WORKERS = 2  # STATS reports it; ServeGoldenTest uses the same count


def exhaustive3_payload():
    """EVALB/SIMB payload of all 8 patterns over 3 inputs: lane i holds
    bit i of the pattern index."""
    return struct.pack("<3Q", 0xAA, 0xCC, 0xF0)


def ident_inputs():
    payload = exhaustive3_payload()
    pipeline = (b"LOAD s @SAMPLE_PLA@\nEVAL s 7 0\nSIM s 5\nFROBNICATE nope\n"
                b"EVALB s 8 3\n" + payload + b"SIMB s 8 3\n" + payload +
                b"VERIFY s\nSTATS\nQUIT\n")
    return {
        "ident_pipeline": pipeline,
        "ident_unframed_bulk": b"EVALB s not_a_number 4\n",
        # Each golden runs on a fresh server, so the residual EVAL needs
        # its own LOAD.
        "ident_residual": b"LOAD s @SAMPLE_PLA@\nEVAL s 3",
    }


def strip_chunk_prefix(data):
    """The fuzz harness's "CHNK" | count | seeds prefix selects read
    boundaries, not wire bytes."""
    if len(data) >= 5 and data[:4] == b"CHNK" and len(data) >= 5 + data[4]:
        return data[5 + data[4]:]
    return data


def placeholder_loads(wire):
    """The fuzz harness's LOAD rewrite: every 3-token LOAD line loads
    circuit c from the seed file."""
    lines = wire.split(b"\n")
    for i, line in enumerate(lines):
        tokens = re.split(rb"[ \t\r]+", line.strip(b" \t\r"))
        if len(tokens) == 3 and tokens[0] == b"LOAD":
            lines[i] = b"LOAD c @SEED_PLA@"
    return b"\n".join(lines)


def fuzz_inputs():
    inputs = {}
    for prefix, directory in FUZZ_DIRS:
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as f:
                wire = placeholder_loads(strip_chunk_prefix(f.read()))
            inputs[prefix + "_" + os.path.splitext(name)[0]] = wire
    return inputs


def canonical_load_times(data):
    return re.sub(rb"(OK loaded [^\n]*? cells, )[0-9.]+( ms\n)", rb"\1T\2",
                  data)


def connect(path, attempts=400):
    for _ in range(attempts):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            time.sleep(0.005)
    raise RuntimeError("cannot connect to " + path)


def capture(server_bin, tmp, wire):
    """One fresh server, one connection: send everything, half-close,
    read to EOF."""
    path = os.path.join(tmp, "golden.sock")
    proc = subprocess.Popen(
        [server_bin, "--socket", path, "--workers", str(WORKERS),
         "--log-level", "off"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        sock = connect(path)
        sock.sendall(wire)
        sock.shutdown(socket.SHUT_WR)
        out = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            out += chunk
        sock.close()
        if proc.poll() is None:
            try:
                ctl = connect(path, attempts=20)
                ctl.sendall(b"SHUTDOWN\n")
                ctl.recv(256)
                ctl.close()
            except RuntimeError:
                pass  # the golden connection itself sent SHUTDOWN
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return canonical_load_times(out)


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: capture_serve_golden.py <path-to-ambit_serve>")
    server_bin = os.path.abspath(sys.argv[1])
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    inputs = ident_inputs()
    inputs.update(fuzz_inputs())
    with tempfile.TemporaryDirectory() as tmp:
        sample = os.path.join(tmp, "sample.pla")
        seed = os.path.join(tmp, "seed.pla")
        with open(sample, "wb") as f:
            f.write(SAMPLE_PLA)
        with open(seed, "wb") as f:
            f.write(SEED_PLA)
        for name, wire in sorted(inputs.items()):
            filled = wire.replace(b"@SAMPLE_PLA@", sample.encode()).replace(
                b"@SEED_PLA@", seed.encode())
            out = capture(server_bin, tmp, filled)
            with open(os.path.join(GOLDEN_DIR, name + ".in"), "wb") as f:
                f.write(wire)
            with open(os.path.join(GOLDEN_DIR, name + ".out"), "wb") as f:
                f.write(out)
            print("%-40s %5d bytes in, %5d bytes out" %
                  (name, len(wire), len(out)))


if __name__ == "__main__":
    main()
