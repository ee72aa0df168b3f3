"""Crash-recovery soak: journaled TCP gateway killed mid-stream, twice.

CI's end-to-end exercise of durable sessions exactly as deployed: a
``python -m repro serve --tcp ... --journal DIR`` gateway process, a TCP
client editing a durable session with monotone rids, and the standard
``REPRO_FAULTS`` machinery killing the gateway at scheduled journal
appends — once *after* a record is durable but before its ack
(``journal_crash``: the lost-acknowledgement window rid deduplication
exists for), and once with only half a frame on disk (``journal_torn``:
the tail the CRC framing must truncate, never replay).  After each kill
the gateway is restarted on the same journal directory and the client
re-``attach``\\ es:

* reports must come back **byte-identical** to an in-process sequential
  reference driven through the same edit history,
* the retried rid must be applied **exactly once** (duplicate-ack after
  the crash, fresh apply after the torn write), and
* the ``stats`` op must show the **exact** journal counters for each
  phase (replayed records, truncated tails, recovered sessions,
  duplicate acks).

A client ``shutdown`` then drains the final gateway, which must exit 0.
The journal directory is left on disk for CI to upload as an artifact.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/recovery_soak.py [--journal DIR]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import SpecCC  # noqa: E402
from repro.service.server import AsyncSpecServer  # noqa: E402

DOCUMENT = (
    "If the sensor is active, the valve is opened.\n"
    "If the button is pressed, the lamp is activated."
)
EDITS = {
    3: "If the button is pressed, the lamp is not activated.",
    5: "If the sensor is active, the valve is not opened.",
    7: "If the button is pressed, the lamp is activated and the bell is rung.",
}

#: The client's whole history, rid -> request.  Checks carry
#: ``timings=False`` — the repo's byte-identity convention.
HISTORY = {
    1: {"op": "load", "document": DOCUMENT},
    2: {"op": "check", "timings": False},
    3: {"op": "update", "id": "R2", "text": EDITS[3]},
    4: {"op": "check", "timings": False},
    5: {"op": "update", "id": "R1", "text": EDITS[5]},
    6: {"op": "check", "timings": False},
    7: {"op": "update", "id": "R2", "text": EDITS[7]},
    8: {"op": "check", "timings": False},
}

TOKEN = "soak"


def sequential_reference() -> dict:
    """rid -> canonical report bytes, from a dedicated in-process run."""
    SpecCC.clear_caches()
    server = AsyncSpecServer(SpecCC())

    async def drive() -> dict:
        reports = {}
        for rid in sorted(HISTORY):
            response = await server.handle_request(dict(HISTORY[rid]))
            if HISTORY[rid]["op"] == "check":
                reports[rid] = json.dumps(response["report"], sort_keys=True)
        return reports

    return asyncio.run(drive())


def child_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env.pop("REPRO_FAULTS", None)
    env.update(extra)
    return env


def spawn_gateway(journal: Path, faults: dict = None) -> subprocess.Popen:
    extra = {"REPRO_FAULTS": json.dumps(faults)} if faults else {}
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--tcp", "127.0.0.1:0",
            "--journal", str(journal),
        ],
        env=child_env(**extra),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )


def read_address(stderr) -> tuple:
    deadline = time.monotonic() + 60.0
    marker = "listening on "
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

    def send(self, payload: dict) -> None:
        self.wfile.write((json.dumps(payload) + "\n").encode("utf-8"))
        self.wfile.flush()

    def request(self, payload: dict) -> dict:
        self.send(payload)
        line = self.rfile.readline()
        assert line, "gateway closed the connection mid-request"
        response = json.loads(line.decode("utf-8"))
        assert response.get("ok"), response
        return response

    def request_lost(self, payload: dict) -> None:
        """Send *payload* and assert the ack never arrives (the crash)."""
        self.send(payload)
        try:
            line = self.rfile.readline()
        except OSError:
            line = b""
        assert not line, f"expected the gateway to die, got ack {line!r}"

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def play(client: Client, rids, reference: dict) -> dict:
    """Drive HISTORY rids in order, byte-checking every check report."""
    last = None
    for rid in rids:
        last = client.request(dict(HISTORY[rid], rid=rid))
        if HISTORY[rid]["op"] == "check":
            got = json.dumps(last["report"], sort_keys=True)
            assert got == reference[rid], f"rid {rid} report diverged"
    return last


def expect_exit(gateway: subprocess.Popen, code: int, what: str) -> None:
    got = gateway.wait(timeout=60.0)
    assert got == code, f"{what}: gateway exited {got}, expected {code}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--journal", type=Path,
        default=Path(tempfile.mkdtemp(prefix="recovery-soak-")),
        help="journal directory (kept on disk for artifact upload)",
    )
    args = parser.parse_args(argv)
    journal = args.journal
    reference = sequential_reference()
    print(f"sequential reference: {len(reference)} check reports")
    print(f"journal directory: {journal}")

    # ---- Phase A: serve until a scheduled crash AFTER a durable append.
    # Appends are 0-ordinal per process: load(0), check(1), update(2),
    # check(3) <- journal_crash: record durable, process dies pre-ack.
    gateway = spawn_gateway(
        journal, faults={"faults": [{"kind": "journal_crash", "task": 3}]}
    )
    try:
        client = Client(*read_address(gateway.stderr))
        attach = client.request({"op": "attach", "token": TOKEN})
        assert attach["last_rid"] is None, attach
        play(client, (1, 2, 3), reference)
        client.request_lost(dict(HISTORY[4], rid=4))
        client.close()
        expect_exit(gateway, 1, "phase A (scheduled crash)")
        print("phase A: gateway died after durably journaling rid 4, before ack")
    finally:
        if gateway.poll() is None:
            gateway.kill()
            gateway.wait(timeout=15)

    # ---- Phase B: restart, resume, retry the unacknowledged rid.
    gateway = spawn_gateway(journal)
    try:
        client = Client(*read_address(gateway.stderr))
        attach = client.request({"op": "attach", "token": TOKEN})
        # The crash landed between append and ack: the watermark proves
        # rid 4 was applied, and the retry dedupes instead of re-running.
        assert attach["last_rid"] == 4, attach
        assert attach["revision"] == 2, attach
        assert attach["replayed_records"] == 4, attach
        retried = client.request(dict(HISTORY[4], rid=4))
        assert retried.get("duplicate") is True, retried
        got = json.dumps(retried["report"], sort_keys=True)
        assert got == reference[4], "duplicate ack report diverged"
        print("phase B: attach resumed at rid 4; retry deduplicated, "
              "report byte-identical")

        stats = client.request({"op": "stats"})["journal"]
        assert stats["recovered_sessions"] == 1, stats
        assert stats["replayed_records"] == 4, stats
        assert stats["truncated_tails"] == 0, stats
        assert stats["duplicates"] == 1, stats
        assert stats["appends"] == 0, stats

        play(client, (5, 6), reference)  # fresh work journals again
        stats = client.request({"op": "stats"})["journal"]
        assert stats["appends"] == 2, stats
        ack = client.request({"op": "shutdown"})
        assert ack["ok"], ack
        client.close()
        expect_exit(gateway, 0, "phase B (graceful drain)")
        print("phase B: journal counters exact; graceful drain exited 0")
    finally:
        if gateway.poll() is None:
            gateway.kill()
            gateway.wait(timeout=15)

    # ---- Phase C: a torn write — half a frame reaches the disk.
    gateway = spawn_gateway(
        journal, faults={"faults": [{"kind": "journal_torn", "task": 0}]}
    )
    try:
        client = Client(*read_address(gateway.stderr))
        attach = client.request({"op": "attach", "token": TOKEN})
        assert attach["last_rid"] == 6, attach
        client.request_lost(dict(HISTORY[7], rid=7))
        client.close()
        expect_exit(gateway, 1, "phase C (torn write)")
        print("phase C: gateway died with half of rid 7's frame on disk")
    finally:
        if gateway.poll() is None:
            gateway.kill()
            gateway.wait(timeout=15)

    # ---- Phase D: the torn tail is truncated, never replayed; the
    # retry applies FRESH (rid 7 was never acknowledged or durable).
    gateway = spawn_gateway(journal)
    try:
        client = Client(*read_address(gateway.stderr))
        attach = client.request({"op": "attach", "token": TOKEN})
        assert attach["last_rid"] == 6, attach
        assert attach["revision"] == 3, attach
        assert attach["replayed_records"] == 6, attach
        retried = client.request(dict(HISTORY[7], rid=7))
        assert "duplicate" not in retried, retried
        play(client, (8,), reference)
        stats = client.request({"op": "stats"})["journal"]
        assert stats["recovered_sessions"] == 1, stats
        assert stats["replayed_records"] == 6, stats
        assert stats["truncated_tails"] == 1, stats
        assert stats["duplicates"] == 0, stats
        assert stats["appends"] == 2, stats
        print("phase D: torn tail truncated and counted; rid 7 re-applied "
              "exactly once; final report byte-identical")

        ack = client.request({"op": "shutdown"})
        assert ack["ok"], ack
        client.close()
        expect_exit(gateway, 0, "phase D (graceful drain)")
    finally:
        if gateway.poll() is None:
            gateway.kill()
            gateway.wait(timeout=15)

    print("recovery soak passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
