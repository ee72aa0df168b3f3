"""Loopback TCP soak: the gateway's local process pool + a scheduled crash.

CI's end-to-end exercise of the network serving tier exactly as
deployed: one ``python -m repro serve --tcp 127.0.0.1:0`` gateway
process with the standard ``REPRO_FAULTS`` crash plan armed, and a
13-document ``batch`` request (``"workers": 2``) sent over the wire.
The batch lands on the gateway's local process pool, where the fault
kills shard 0's worker on its third task; the supervisor respawns it
and retries the task.  The batch must come back **byte-identical to the
sequential reference**, and the recovery counters, read over the wire
through the ``stats`` op, must be exact: each shard is one process, so
the crash is exactly one death, one restart and one retry.  A client
``shutdown`` then drains the gateway, which must exit 0.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/tcp_soak.py
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from soak_corpus import fault_documents  # noqa: E402
from repro.service.batch import BatchChecker  # noqa: E402

PLAN = {
    "seed": 11,
    "faults": [{"kind": "crash", "shard": 0, "task": 2, "max_spawn": 0}],
}

SHARDS = 2


def child_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env.update(extra)
    return env


def read_address(stderr, marker: str) -> tuple:
    """Parse ``<marker> HOST:PORT`` from the gateway's stderr."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = stderr.readline()
        if not line:
            break
        line = line.strip()
        print(f"[gateway] {line}")
        if line.startswith(marker):
            host, _, port = line[len(marker):].strip().rpartition(":")
            return host, int(port)
    raise RuntimeError(f"gateway never printed {marker!r}")


class Client:
    """One JSON-lines TCP connection to the gateway."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=180.0)
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")

    def request(self, payload: dict) -> dict:
        self.wfile.write((json.dumps(payload) + "\n").encode("utf-8"))
        self.wfile.flush()
        line = self.rfile.readline()
        assert line, "gateway closed the connection mid-request"
        return json.loads(line.decode("utf-8"))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def main() -> int:
    documents = fault_documents()
    reference = [
        json.dumps(result.data, sort_keys=True)
        for result in BatchChecker(workers=1).check_documents(documents)
    ]
    print(f"sequential reference: {len(reference)} documents")

    gateway = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0"],
        env=child_env(REPRO_FAULTS=json.dumps(PLAN)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        host, port = read_address(gateway.stderr, "listening on ")
        client = Client(host, port)

        start = time.monotonic()
        response = client.request(
            {
                "op": "batch",
                "workers": SHARDS,
                "documents": [
                    {"name": name, "text": text} for name, text in documents
                ],
            }
        )
        seconds = time.monotonic() - start
        assert response["ok"], response
        got = [
            json.dumps(entry["report"], sort_keys=True)
            for entry in response["results"]
        ]
        assert got == reference, "TCP batch diverged from sequential reference"
        print(f"13/13 documents byte-identical over TCP in {seconds:.2f}s")

        stats = client.request({"op": "stats"})
        assert stats["ok"], stats
        (row,) = [row for row in stats["pools"] if row["shards"] == SHARDS]
        supervision = row["supervision"]
        # One scheduled crash on a one-process shard: exactly one death,
        # one respawn and one retry; the respawned worker (spawn 1) is
        # outside the fault's max_spawn=0 window.
        assert supervision["worker_deaths"] == 1, supervision
        assert supervision["restarts"] == 1, supervision
        assert supervision["retries"] == 1, supervision
        assert supervision["attempts"] == len(documents) + 1, supervision
        assert supervision["timeouts"] == 0, supervision
        assert supervision["degraded"] is False, supervision
        assert row["spawns"] == [1, 0], row
        print(f"supervision counters: {supervision}")

        metrics = client.request({"op": "metrics", "full": False})
        counters = metrics["metrics"]["counters"]
        assert counters.get("gateway.requests", 0) > 0, counters
        assert metrics["metrics"]["gateway"]["connections_open"] >= 1

        ack = client.request({"op": "shutdown"})
        assert ack["ok"], ack
        client.close()

        assert gateway.wait(timeout=60.0) == 0, "gateway exited non-zero"
        print("graceful drain: gateway exited 0")
        print("tcp soak passed")
        return 0
    finally:
        if gateway.poll() is None:
            gateway.kill()
            gateway.wait(timeout=15)


if __name__ == "__main__":
    raise SystemExit(main())
