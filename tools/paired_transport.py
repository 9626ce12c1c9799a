"""Paired A/B transport load: a base and a change, run alternately.

    python3 tools/paired_transport.py --base HEAD --change . \\
        --stream tcp --workers 0 --pairs 10 [--requests 20000] \\
        [--json results.json]

perfbench drives the service in process, so it never reaches a
transport.  This drives ``repro serve`` from each tree as a subprocess,
over one stream type, with warm ``resolve`` requests (derivation-cache
hits, so the transport and the request path are the cost):

``tcp``
    ``--clients`` connections (default 8), one session each; every
    connection pipelines its share of ``--requests`` while the others do.
``stdio``
    one pipe, 16 sessions; all ``--requests`` written round-robin over
    the sessions while the answers are read.
``file``
    stdin is a regular file holding the session set-up and the requests;
    the time includes server start-up.

A run's metric is ``req_per_s``: requests over the wall time from the
first request written to the last answer read.  ``--base``/``--change``,
the alternation and the report are those of ``paired_perfbench.py``.
The load generator speaks raw JSON lines and imports nothing from
either tree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from paired_perfbench import checkout, report  # noqa: E402

CHAIN = ["C0"] + ["{C%d} => C%d" % (i - 1, i) for i in range(1, 6)]
QUERIES = ["C%d" % i for i in range(6)]
STDIO_SESSIONS = 16


def _line(request_id: int, op: str, params: dict) -> bytes:
    return json.dumps({"id": request_id, "op": op, "params": params}).encode() + b"\n"


def _resolves(sessions: list[str], count: int, first_id: int) -> list[bytes]:
    return [
        _line(first_id + i, "resolve",
              {"session": sessions[i % len(sessions)],
               "type": QUERIES[(i // len(sessions)) % len(QUERIES)]})
        for i in range(count)
    ]


def _setup(session: str, first_id: int) -> list[bytes]:
    """``session/new`` then one warming ``resolve`` per query."""
    return [_line(first_id, "session/new", {"name": session, "rules": CHAIN})] + [
        _line(first_id + 1 + i, "resolve", {"session": session, "type": q})
        for i, q in enumerate(QUERIES)
    ]


def _write_in_chunks(write, lines: list[bytes], chunk: int = 64) -> None:
    for i in range(0, len(lines), chunk):
        write(b"".join(lines[i:i + chunk]))


def _read_answers(readline, count: int) -> int:
    """Read ``count`` answers; return how many were ``ok``."""
    ok = 0
    for _ in range(count):
        line = readline()
        if not line:
            raise RuntimeError("server closed the stream early")
        ok += json.loads(line)["ok"]
    return ok


def _serve(tree: str, args: argparse.Namespace, *transport: str, **popen):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *transport,
         "--workers", str(args.workers), "--threads", str(args.threads)],
        cwd=tree, env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")},
        **popen,
    )


def _converse(stdin, stdout, lines: list[bytes]) -> int:
    """Write ``lines`` one by one, reading each answer before the next."""
    ok = 0
    for line in lines:
        stdin.write(line)
        stdin.flush()
        ok += _read_answers(stdout.readline, 1)
    return ok


def run_tcp(tree: str, args: argparse.Namespace) -> tuple[float, int]:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    proc = _serve(tree, args, "--tcp", f"127.0.0.1:{port}",
                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    conns = []
    try:
        for _ in range(600):
            try:
                conns.append(socket.create_connection(("127.0.0.1", port)))
                break
            except OSError:
                time.sleep(0.05)
        conns += [socket.create_connection(("127.0.0.1", port))
                  for _ in range(args.clients - 1)]
        files = [conn.makefile("rwb") for conn in conns]
        share = args.requests // args.clients
        batches = []
        for i, f in enumerate(files):
            _converse(f, f, _setup(f"c{i}", 0))
            batches.append(_resolves([f"c{i}"], share, 100))
        oks = [0] * len(conns)

        def load(i: int) -> None:
            writer = threading.Thread(
                target=_write_in_chunks, args=(conns[i].sendall, batches[i]))
            writer.start()
            oks[i] = _read_answers(files[i].readline, share)
            writer.join()

        clients = [threading.Thread(target=load, args=(i,)) for i in range(len(conns))]
        start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        elapsed = time.perf_counter() - start
        _converse(files[0], files[0], [_line(0, "shutdown", {})])
        for f in files:
            f.close()
    finally:
        for conn in conns:
            conn.close()
        _reap(proc)
    return share * len(conns) / elapsed, sum(oks)


def run_stdio(tree: str, args: argparse.Namespace) -> tuple[float, int]:
    proc = _serve(tree, args, "--stdio", stdin=subprocess.PIPE,
                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        sessions = [f"s{i}" for i in range(STDIO_SESSIONS)]
        for i, session in enumerate(sessions):
            _converse(proc.stdin, proc.stdout, _setup(session, 10 * i))
        lines = _resolves(sessions, args.requests, 1000)

        def write() -> None:
            _write_in_chunks(proc.stdin.write, lines)
            proc.stdin.flush()

        writer = threading.Thread(target=write)
        start = time.perf_counter()
        writer.start()
        ok = _read_answers(proc.stdout.readline, len(lines))
        elapsed = time.perf_counter() - start
        writer.join()
        proc.stdin.close()
    finally:
        _reap(proc)
    return len(lines) / elapsed, ok


def run_file(tree: str, args: argparse.Namespace) -> tuple[float, int]:
    sessions = [f"s{i}" for i in range(STDIO_SESSIONS)]
    lines = [line for i, s in enumerate(sessions) for line in _setup(s, 10 * i)]
    lines += _resolves(sessions, args.requests, 1000)
    with tempfile.TemporaryFile() as requests:
        requests.write(b"".join(lines))
        requests.seek(0)
        start = time.perf_counter()
        proc = _serve(tree, args, "--stdio", stdin=requests,
                      stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            ok = _read_answers(proc.stdout.readline, len(lines))
            elapsed = time.perf_counter() - start
        finally:
            _reap(proc)
    return args.requests / elapsed, ok


def _reap(proc: subprocess.Popen) -> None:
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            pipe.close()


RUNS = {"tcp": run_tcp, "stdio": run_stdio, "file": run_file}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="directory or git revision")
    parser.add_argument("--change", default=".", help="directory or git revision")
    parser.add_argument("--stream", choices=sorted(RUNS), required=True)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=20000)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", help="write every run and the table here")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.clients < 1 or args.requests < args.clients:
        parser.error("--pairs and --clients must be positive, "
                     "--requests at least --clients")

    scratch = tempfile.mkdtemp(prefix="paired-transport-")
    try:
        trees = {"base": checkout(args.base, scratch),
                 "change": checkout(args.change, scratch)}
        pairs = []
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"order": list(order)}
            for side in order:
                rate, ok = RUNS[args.stream](trees[side], args)
                pair[side] = {"metrics": {"req_per_s": {"value": rate}}, "ok": ok}
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): "
                  f"ok base={pair['base']['ok']} change={pair['change']['ok']}",
                  file=sys.stderr)
        print(f"== {args.stream}, --workers {args.workers}, --threads "
              f"{args.threads}, {args.requests} requests, {args.pairs} pairs: "
              f"base {args.base}, change {args.change}")
        rows = report(pairs, {"req_per_s": "higher"})
        if args.json:
            with open(args.json, "w", encoding="utf-8") as f:
                json.dump({"args": vars(args), "pairs": pairs, "table": rows},
                          f, indent=1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
