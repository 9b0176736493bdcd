#!/usr/bin/env python3
"""End-to-end scrape smoke over a live ambit_serve process.

CI runs this against the plain, TSan, and ASan+UBSan builds: it boots
`ambit_serve --tcp 127.0.0.1:0 --metrics 127.0.0.1:0` with a preloaded
array, hammers the protocol port from several client threads, and —
while the storm is running — scrapes `/metrics` and `/healthz` off the
HTTP side port exactly the way a Prometheus scraper would. The run
fails on malformed exposition output (a text-format 0.0.4 lint lives
below, a deliberately independent reimplementation of the C++ lint in
tests/prometheus_lint.h), on any non-OK protocol response, on wrong
HTTP status codes (404/405/400 probes included), on counters that
move backwards between scrapes, on two histogram children whose `le`
bounds differ (every histogram shares one layout), or on a STATS line
that disagrees with the page it renders.

Usage: serve_scrape_smoke.py <path-to-ambit_serve>
"""

import re
import socket
import subprocess
import sys
import tempfile
import threading
import time

NUM_INPUTS = 4
CLIENTS = 4
REQUESTS_PER_CLIENT = 200

# f-type PLA: 2 outputs over 4 inputs, enough products that EVAL does
# real lane work.
PLA_TEXT = """.i 4
.o 2
.p 4
1--- 10
-1-- 01
--11 11
0-0- 01
.e
"""


def fail(message):
    print(f"serve_scrape_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def read_bound_ports(proc, deadline):
    """Parses the two 'bound port' announcements off the server's
    stderr; everything else is echoed through for the CI log."""
    tcp_port = None
    metrics_port = None
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        sys.stderr.write(line)
        match = re.search(r"ambit_serve: tcp bound port (\d+)", line)
        if match:
            tcp_port = int(match.group(1))
        match = re.search(r"ambit_serve: metrics bound port (\d+)", line)
        if match:
            metrics_port = int(match.group(1))
        if tcp_port is not None and metrics_port is not None:
            return tcp_port, metrics_port
    fail("server did not announce both bound ports "
         f"(tcp={tcp_port}, metrics={metrics_port})")


def recv_line(sock):
    out = b""
    while not out.endswith(b"\n"):
        chunk = sock.recv(1)
        if not chunk:
            fail(f"protocol connection closed mid-line (got {out!r})")
        out += chunk
    return out.decode()


def protocol_connect(port):
    return socket.create_connection(("127.0.0.1", port), timeout=10)


def storm_client(port, seed, errors):
    try:
        with protocol_connect(port) as sock:
            for i in range(REQUESTS_PER_CLIENT):
                pattern = format((seed * 7 + i) % (1 << NUM_INPUTS), "x")
                sock.sendall(f"EVAL smoke {pattern}\n".encode())
                line = recv_line(sock)
                if not line.startswith("OK "):
                    errors.append(f"EVAL answered {line!r}")
                    return
            sock.sendall(b"QUIT\n")
            if recv_line(sock) != "OK bye\n":
                errors.append("QUIT not answered with OK bye")
    except Exception as exc:  # propagated to the main thread's check
        errors.append(f"storm client: {exc!r}")


def http_transact(port, raw_request):
    """Raw-socket HTTP/1.0 round trip (the side listener closes the
    connection after one response, so read-to-EOF is the framing)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(raw_request)
        out = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return out.decode(errors="replace")
            out += chunk


def http_get(port, target):
    response = http_transact(
        port, f"GET {target} HTTP/1.0\r\n\r\n".encode())
    head, sep, body = response.partition("\r\n\r\n")
    if not sep:
        fail(f"GET {target}: no header/body separator in {response!r}")
    status = head.split("\r\n")[0]
    match = re.search(r"Content-Length: (\d+)", head)
    if not match or int(match.group(1)) != len(body.encode()):
        fail(f"GET {target}: Content-Length disagrees with body")
    return status, head, body


SAMPLE_RE = re.compile(
    r'^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{((?:[A-Za-z_][A-Za-z0-9_]*='
    r'"(?:[^"\\]|\\["\\n])*",?)*)\})? ([0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?)$')


def lint_prometheus(page):
    """Text-format 0.0.4 lint; returns {(name, labels): value}."""
    samples = {}
    types = {}
    helped = set()
    last_family = ""
    for line in page.splitlines():
        if line.startswith("# HELP "):
            name = line.split(" ")[2]
            if name in helped:
                fail(f"family emitted twice: {name}")
            helped.add(name)
            if name <= last_family and last_family:
                fail(f"families not sorted: {last_family} then {name}")
            last_family = name
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if parts[2] not in helped:
                fail(f"# TYPE before # HELP: {line}")
            if parts[3] not in ("counter", "gauge", "histogram"):
                fail(f"bad TYPE: {line}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#") or not line:
            fail(f"unexpected line in exposition: {line!r}")
        match = SAMPLE_RE.match(line)
        if not match:
            fail(f"sample fails the grammar: {line!r}")
        name, labels, value = match.group(1), match.group(2) or "", match.group(3)
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                family = name[: -len(suffix)]
        if family not in types:
            fail(f"sample without TYPE: {line!r}")
        if (family != name) != (types[family] == "histogram"):
            fail(f"child/type mismatch: {line!r}")
        samples[(name, labels)] = float(value)
    # Histogram coherence: per label-group, le increases, counts are
    # cumulative, +Inf equals _count.
    groups = {}
    for (name, labels), value in samples.items():
        for family, ftype in types.items():
            if ftype != "histogram" or name != family + "_bucket":
                continue
            le = re.search(r'le="([^"]*)"', labels).group(1)
            rest = re.sub(r',?le="[^"]*"', "", labels).strip(",")
            groups.setdefault((family, rest), []).append((le, value))
    for (family, rest), buckets in groups.items():
        finite = sorted(
            (float(le), v) for le, v in buckets if le != "+Inf")
        if [v for _, v in finite] != sorted(v for _, v in finite):
            fail(f"bucket counts not cumulative: {family}{{{rest}}}")
        inf = [v for le, v in buckets if le == "+Inf"]
        count_labels = rest
        count = samples.get((family + "_count", count_labels))
        if len(inf) != 1 or count is None or inf[0] != count:
            fail(f"+Inf bucket / _count mismatch: {family}{{{rest}}}")
        if (family + "_sum", count_labels) not in samples:
            fail(f"histogram without _sum: {family}{{{rest}}}")
    # One layout: every histogram child lists the same le bounds.
    layouts = {key: sorted(le for le, _ in buckets)
               for key, buckets in groups.items()}
    first = min(layouts, default=None)
    for key, les in layouts.items():
        if les != layouts[first]:
            fail(f"histogram layouts differ: {key[0]}{{{key[1]}}} lists "
                 f"{les}, {first[0]}{{{first[1]}}} lists {layouts[first]}")
    return samples


def scrape_metrics(port):
    status, head, body = http_get(port, "/metrics")
    if "200 OK" not in status:
        fail(f"/metrics answered {status}")
    if "text/plain; version=0.0.4" not in head:
        fail(f"/metrics content-type wrong: {head!r}")
    return lint_prometheus(body)


def metrics_over_verb(port):
    with protocol_connect(port) as sock:
        sock.sendall(b"METRICS\n")
        header = recv_line(sock)
        match = re.match(r"OK METRICS (\d+)\n", header)
        if not match:
            fail(f"METRICS verb answered {header!r}")
        want = int(match.group(1))
        page = b""
        while len(page) < want:
            chunk = sock.recv(want - len(page))
            if not chunk:
                fail("METRICS page truncated")
            page += chunk
        sock.sendall(b"QUIT\n")
        if recv_line(sock) != "OK bye\n":
            fail("QUIT after METRICS not answered")
    return lint_prometheus(page.decode())


def stats_over_verb(port):
    """The STATS fields as a dict of name -> text."""
    with protocol_connect(port) as sock:
        sock.sendall(b"STATS\nQUIT\n")
        line = recv_line(sock)
        if not line.startswith("OK ") or recv_line(sock) != "OK bye\n":
            fail(f"STATS answered {line!r}")
    return dict(field.split("=", 1) for field in line[3:].split())


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    serve_bin = sys.argv[1]
    with tempfile.NamedTemporaryFile("w", suffix=".pla") as pla:
        pla.write(PLA_TEXT)
        pla.flush()
        proc = subprocess.Popen(
            [serve_bin, "--tcp", "127.0.0.1:0", "--metrics", "127.0.0.1:0",
             "--preload", f"smoke={pla.name}", "--max-connections",
             str(CLIENTS), "--slow-request-us", "1000000"],
            stderr=subprocess.PIPE, text=True)
        try:
            tcp_port, metrics_port = read_bound_ports(
                proc, time.monotonic() + 30)

            # Baseline scrape before any traffic, then the storm with
            # mid-storm scrapes from a scraper "process" of its own.
            before = scrape_metrics(metrics_port)
            errors = []
            threads = [
                threading.Thread(
                    target=storm_client, args=(tcp_port, c, errors))
                for c in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            mid = scrape_metrics(metrics_port)
            status, _, body = http_get(metrics_port, "/healthz")
            if "200 OK" not in status or body != "ok\n":
                fail(f"/healthz answered {status} {body!r}")
            status, _, _ = http_get(metrics_port, "/nope")
            if "404" not in status:
                fail(f"/nope answered {status}")
            response = http_transact(
                metrics_port, b"DELETE /metrics HTTP/1.0\r\n\r\n")
            if "405" not in response.split("\r\n")[0]:
                fail(f"DELETE answered {response!r}")
            response = http_transact(metrics_port, b"not http at all\r\n\r\n")
            if "400" not in response.split("\r\n")[0]:
                fail(f"garbage request answered {response!r}")
            for thread in threads:
                thread.join()
            if errors:
                fail("; ".join(errors))

            # Post-storm: counters settled — they must have moved
            # forward, never backward, and the verb transport must
            # serve the identical (linted) page.
            after = scrape_metrics(metrics_port)
            eval_key = ('ambit_serve_requests_total', 'verb="EVAL"')
            for key in (eval_key,
                        ('ambit_serve_connections_accepted_total', '')):
                if not before.get(key, 0) <= mid[key] <= after[key]:
                    fail(f"counter moved backwards: {key}")
            expected_evals = CLIENTS * REQUESTS_PER_CLIENT
            if after[eval_key] != expected_evals:
                fail(f"EVAL count {after[eval_key]} != {expected_evals}")
            verb_page = metrics_over_verb(tcp_port)
            if verb_page[eval_key] < after[eval_key]:
                fail("METRICS verb page behind the side-port page")

            # STATS renders the same registry: the preload is one LOAD,
            # and evals= is the page's counter.
            stats = stats_over_verb(tcp_port)
            if stats.get("loads") != "1":
                fail(f"STATS loads={stats.get('loads')}, want 1 (--preload)")
            page_evals = int(after[("ambit_serve_evals_total", "")])
            if stats.get("evals") != str(page_evals):
                fail(f"STATS evals={stats.get('evals')} != page {page_evals}")

            with protocol_connect(tcp_port) as sock:
                sock.sendall(b"SHUTDOWN\n")
                if recv_line(sock) != "OK shutting down\n":
                    fail("SHUTDOWN not acknowledged")
            if proc.wait(timeout=30) != 0:
                fail(f"server exited {proc.returncode}")
        finally:
            if proc.poll() is None:
                proc.kill()
            for line in proc.stderr:
                sys.stderr.write(line)
    print(f"serve_scrape_smoke: OK ({CLIENTS} clients x "
          f"{REQUESTS_PER_CLIENT} requests, scrapes linted mid-storm)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
