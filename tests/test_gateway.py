"""Tests of the TCP gateway (service/gateway.py) and the line framing
of the request loop it shares with stdio serve.

The contract under test: the gateway speaks exactly the stdio serve
protocol (same ops, same error codes, byte-identical responses for the
same requests), adds connection-level behaviour — per-connection session
namespacing, token-bucket rate limiting, connection caps, graceful
drain — and never answers protocol pressure by dropping a connection.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import repro.service.server as server_module
from repro.service.gateway import SpecGateway, TokenBucket
from repro.service.server import AsyncSpecServer, _iter_lines, normalize_response

from test_service import BATCH_DOCS, SlowCheckServer, run_serve

SRC = Path(__file__).resolve().parents[1] / "src"


def normalize(response: dict) -> str:
    return json.dumps(normalize_response(response), sort_keys=True)


class _Client:
    """One JSON-lines TCP client connection."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, gateway: SpecGateway) -> "_Client":
        reader, writer = await asyncio.open_connection(*gateway.address)
        return cls(reader, writer)

    async def send_raw(self, data: bytes) -> None:
        self.writer.write(data)
        await self.writer.drain()

    async def recv(self) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), timeout=30.0)
        assert line, "connection closed while a response was expected"
        return json.loads(line.decode("utf-8"))

    async def request(self, payload) -> dict:
        if isinstance(payload, (dict, list)):
            payload = json.dumps(payload)
        await self.send_raw(payload.encode("utf-8") + b"\n")
        return await self.recv()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class _Running:
    """A started gateway plus its run() task, as an async context."""

    def __init__(self, gateway: SpecGateway) -> None:
        self.gateway = gateway
        self.task = None

    async def __aenter__(self) -> SpecGateway:
        await self.gateway.start()
        self.task = asyncio.ensure_future(self.gateway.run())
        return self.gateway

    async def __aexit__(self, *exc_info) -> None:
        await self.gateway.shutdown()
        await asyncio.wait_for(self.task, timeout=10.0)


SCRIPT = [
    {"op": "add", "id": "R1", "text": "If the sensor is active, the valve is opened.", "rid": 1},
    {"op": "check", "timings": False, "rid": 2},
    {"op": "update", "id": "R1", "text": "If the sensor is active, the valve is not opened.", "rid": 3},
    {"op": "check", "timings": False, "rid": 4},
]


class TestTokenBucket:
    def test_burst_then_refill_deterministic(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: clock[0])
        assert bucket.acquire() is True
        assert bucket.acquire() is True
        assert bucket.acquire() is False  # burst exhausted
        clock[0] = 0.5  # one token refilled (2/s * 0.5s)
        assert bucket.acquire() is True
        assert bucket.acquire() is False
        clock[0] = 100.0  # refill caps at burst, not rate * elapsed
        assert bucket.acquire() is True
        assert bucket.acquire() is True
        assert bucket.acquire() is False

    def test_rejects_nonsense(self):
        import pytest

        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=-1)


class TestLineFraming:
    """The raw-byte reader of the one request loop: exact bounds (the
    terminator excluded), guaranteed resync."""

    def _frames(self, chunks, max_bytes):
        async def drive():
            reader = asyncio.StreamReader()
            for chunk in chunks:
                reader.feed_data(chunk)
            reader.feed_eof()
            return [frame async for frame in _iter_lines(reader, max_bytes)]

        return asyncio.run(drive())

    def test_plain_lines(self):
        frames = self._frames([b"abc\ndef\n"], 16)
        assert frames == [(b"abc", False), (b"def", False)]

    def test_exact_bound_passes_one_over_fails(self):
        frames = self._frames([b"x" * 8 + b"\n" + b"y" * 9 + b"\n"], 8)
        assert frames == [(b"x" * 8, False), (b"", True)]

    def test_oversized_line_resyncs_at_newline(self):
        big = b"z" * 100
        frames = self._frames([big + b"\n" + b"ok\n"], 10)
        assert frames == [(b"", True), (b"ok", False)]

    def test_oversized_across_many_chunks(self):
        chunks = [b"z" * 7, b"z" * 7, b"z" * 7, b"\nok\n"]
        frames = self._frames(chunks, 10)
        assert frames == [(b"", True), (b"ok", False)]

    def test_trailing_line_without_newline(self):
        assert self._frames([b"tail"], 16) == [(b"tail", False)]
        assert self._frames([b"t" * 32], 16) == [(b"", True)]

    def test_crlf_stripped(self):
        assert self._frames([b"abc\r\n"], 16) == [(b"abc", False)]


class TestGateway:
    def test_protocol_byte_identical_to_stdio_serve(self):
        """The same request script over TCP and over stdio produces
        byte-identical normalized responses — the gateway adds
        transport, never a second protocol."""

        async def over_tcp():
            async with _Running(SpecGateway(AsyncSpecServer())) as gateway:
                client = await _Client.connect(gateway)
                responses = [await client.request(line) for line in SCRIPT]
                await client.close()
                return responses

        tcp = [normalize(r) for r in asyncio.run(over_tcp())]
        stdio = [normalize(r) for r in run_serve(SCRIPT)]
        assert tcp == stdio
        # The session was stateful across requests: the second check saw
        # the update (revision advanced, edit reanalyzed).
        assert '"revision": 2' in tcp[-1]
        assert '"reanalyzed": true' in tcp[-1]

    def test_connection_namespacing_isolates_sessions(self):
        """Two clients both using session 'default' must not share
        SpecSession state — and a closed connection's sessions are
        dropped from the shared server."""

        async def drive():
            server = AsyncSpecServer()
            async with _Running(SpecGateway(server)) as gateway:
                first = await _Client.connect(gateway)
                second = await _Client.connect(gateway)
                added = await first.request(
                    {"op": "add", "id": "R1", "text": "The valve is opened."}
                )
                other = await second.request(
                    {"op": "check", "timings": False}
                )
                names_live = server.session_names
                await first.close()
                await second.close()
                await asyncio.sleep(0.1)  # connection teardown runs async
                return added, other, names_live, server.session_names

        added, other, names_live, names_after = asyncio.run(drive())
        assert added["ok"] is True and added["size"] == 1
        assert added["session"] == "default"  # namespace prefix restored
        # The second client's 'default' session saw an empty document.
        assert other["ok"] is True
        assert other["report"]["requirements"] == []
        assert {name.split("/")[0] for name in names_live} == {"conn1", "conn2"}
        assert names_after == ()

    def test_oversized_lines_over_tcp(self):
        """Raw-byte bound at the network boundary: a multi-byte line
        whose characters fit but whose bytes do not is rejected with
        'oversized', and the connection resyncs for the next request."""

        async def drive():
            server = AsyncSpecServer(max_request_bytes=1024)
            async with _Running(SpecGateway(server)) as gateway:
                client = await _Client.connect(gateway)
                multi = json.dumps(
                    {"op": "add", "id": "R1", "text": "é" * 700},
                    ensure_ascii=False,
                )
                assert len(multi) <= 1024 < len(multi.encode("utf-8"))
                first = await client.request(multi)
                giant = await client.request("x" * 100_000)
                ping = await client.request({"op": "ping"})
                await client.close()
                return first, giant, ping

        first, giant, ping = asyncio.run(drive())
        assert first["code"] == "oversized"
        assert giant["code"] == "oversized"
        assert ping["ok"] is True

    def test_rate_limit_answers_overloaded(self):
        clock = [0.0]

        async def drive():
            gateway = SpecGateway(
                AsyncSpecServer(), rate=1.0, burst=2.0, clock=lambda: clock[0]
            )
            async with _Running(gateway):
                client = await _Client.connect(gateway)
                admitted = [
                    await client.request({"op": "ping", "rid": i})
                    for i in range(3)
                ]
                clock[0] = 1.5  # refill one token
                after = await client.request({"op": "ping", "rid": 99})
                await client.close()
                return admitted, after

        admitted, after = asyncio.run(drive())
        assert [r["ok"] for r in admitted] == [True, True, False]
        assert admitted[2]["code"] == "overloaded"
        assert admitted[2]["rid"] == 2  # rejection echoes the request id
        assert after["ok"] is True

    def test_rate_limit_counts_malformed_lines(self):
        """Every non-empty line takes a token before it is parsed, so
        malformed lines cannot bypass the bucket (each costs a parse of
        up to max_request_bytes)."""
        clock = [0.0]

        async def drive():
            gateway = SpecGateway(
                AsyncSpecServer(), rate=1.0, burst=2.0, clock=lambda: clock[0]
            )
            async with _Running(gateway):
                client = await _Client.connect(gateway)
                malformed = [await client.request("{not json") for _ in range(10)]
                valid = await client.request({"op": "ping", "rid": 10})
                await client.close()
                return malformed, valid

        malformed, valid = asyncio.run(drive())
        assert [r["code"] for r in malformed] == ["bad_json"] * 2 + ["overloaded"] * 8
        assert valid["code"] == "overloaded"
        assert valid["rid"] == 10

    def test_rejections_wait_only_for_their_own_session(self, monkeypatch):
        """A line the loop answers itself follows the earlier requests of
        the session it names, and is not held behind another session's
        long check."""
        monkeypatch.setattr(server_module, "_Server", SlowCheckServer)
        clock = [0.0]

        async def drive():
            gateway = SpecGateway(
                AsyncSpecServer(), rate=1.0, burst=2.0, clock=lambda: clock[0]
            )
            async with _Running(gateway):
                client = await _Client.connect(gateway)
                await client.send_raw(
                    b"".join(
                        json.dumps(request).encode("utf-8") + b"\n"
                        for request in (
                            {"op": "check", "session": "slow", "rid": 1},
                            {"op": "ping", "session": "fast", "rid": 2},
                            {"op": "ping", "session": "fast", "rid": 3},
                            {"op": "ping", "session": "slow", "rid": 4},
                        )
                    )
                )
                responses = [await client.recv() for _ in range(4)]
                await client.close()
                return responses

        responses = asyncio.run(drive())
        assert [r["rid"] for r in responses] == [2, 3, 1, 4]
        assert [r["ok"] for r in responses] == [True, False, True, False]
        assert {responses[1]["code"], responses[3]["code"]} == {"overloaded"}

    def test_long_request_does_not_block_other_connections(self, monkeypatch):
        """A lone connection's long check runs off the event loop, which
        keeps accepting and answering other clients meanwhile."""
        monkeypatch.setattr(server_module, "_Server", SlowCheckServer)

        async def drive():
            async with _Running(SpecGateway(AsyncSpecServer())) as gateway:
                first = await _Client.connect(gateway)
                await first.send_raw(b'{"op": "check"}\n')
                await asyncio.sleep(0.2)  # the check is running
                check = asyncio.ensure_future(first.recv())
                second = await _Client.connect(gateway)
                ping = await second.request({"op": "ping"})
                overtaken = not check.done()
                checked = await check
                await first.close()
                await second.close()
                return ping, overtaken, checked

        ping, overtaken, checked = asyncio.run(drive())
        assert ping["ok"] is True
        assert overtaken, "the ping waited for the other connection's check"
        assert checked["ok"] is True

    def test_connection_cap_rejects_with_overloaded(self):
        async def drive():
            gateway = SpecGateway(AsyncSpecServer(), max_connections=1)
            async with _Running(gateway):
                first = await _Client.connect(gateway)
                await first.request({"op": "ping"})  # connection is live
                second = await _Client.connect(gateway)
                rejection = await second.recv()
                tail = await second.reader.read()
                still = await first.request({"op": "ping"})
                await first.close()
                await second.close()
                return rejection, tail, still

        rejection, tail, still = asyncio.run(drive())
        assert rejection["ok"] is False
        assert rejection["code"] == "overloaded"
        assert tail == b""  # rejected connection is closed after the line
        assert still["ok"] is True

    def test_metrics_and_stats_over_the_wire(self):
        async def drive():
            async with _Running(SpecGateway(AsyncSpecServer())) as gateway:
                client = await _Client.connect(gateway)
                await client.request({"op": "ping"})
                metrics = await client.request({"op": "metrics", "full": False})
                await client.close()
                return metrics, gateway.stats()

        metrics, stats = asyncio.run(drive())
        assert metrics["ok"] is True
        payload = metrics["metrics"]
        assert payload["gateway"]["connections_open"] >= 1
        assert payload["counters"]["gateway.requests"] >= 1
        assert stats["connections_total"] == 1
        assert stats["draining"] is False  # captured while still serving

    def test_client_shutdown_drains_gateway(self):
        async def drive():
            gateway = SpecGateway(AsyncSpecServer())
            await gateway.start()
            run = asyncio.ensure_future(gateway.run())
            client = await _Client.connect(gateway)
            ack = await client.request({"op": "shutdown"})
            await asyncio.wait_for(run, timeout=10.0)
            await client.close()
            return ack, gateway.stats()

        ack, stats = asyncio.run(drive())
        assert ack["ok"] is True
        assert stats["draining"] is True

    def test_client_shutdown_can_be_disabled(self):
        async def drive():
            gateway = SpecGateway(AsyncSpecServer(), allow_shutdown=False)
            async with _Running(gateway):
                client = await _Client.connect(gateway)
                refusal = await client.request({"op": "shutdown"})
                ping = await client.request({"op": "ping"})
                await client.close()
                return refusal, ping

        refusal, ping = asyncio.run(drive())
        assert refusal["ok"] is False
        assert refusal["code"] == "bad_request"
        assert ping["ok"] is True  # the gateway is still serving

    def test_batch_over_tcp_byte_identical_to_sequential(self):
        """The 13-doc corpus through a TCP batch op matches the
        sequential workers=1 reference byte for byte."""
        from repro import BatchChecker
        from test_pool import CORPUS13

        sequential = [
            json.dumps(result.data, sort_keys=True)
            for result in BatchChecker(workers=1).check_documents(CORPUS13)
        ]

        async def drive():
            async with _Running(SpecGateway(AsyncSpecServer())) as gateway:
                client = await _Client.connect(gateway)
                response = await client.request(
                    {
                        "op": "batch",
                        "backend": "thread",
                        "workers": 4,
                        "documents": [
                            {"name": name, "text": text}
                            for name, text in CORPUS13
                        ],
                    }
                )
                await client.close()
                return response

        response = asyncio.run(drive())
        assert response["ok"] is True
        got = [
            json.dumps(entry["report"], sort_keys=True)
            for entry in response["results"]
        ]
        assert got == sequential

    def test_serve_tcp_batch_defaults_to_process_pool(self):
        """``python -m repro serve --tcp`` answers a ``batch`` that names
        no backend from the persistent process pool (stdio ``serve``
        defaults to ``thread``)."""
        proc, address = _spawn_serve_tcp()
        try:
            sock = socket.create_connection(address, timeout=120)
            with sock, sock.makefile("rwb") as stream:
                request = _line_requester(stream)
                batch = request(
                    {
                        "op": "batch",
                        "workers": 2,
                        "documents": [
                            {"name": "a", "text": BATCH_DOCS[0][1]},
                            {"name": "b", "text": BATCH_DOCS[2][1]},
                        ],
                    }
                )
                stats = request({"op": "stats"})
                request({"op": "shutdown"})
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=15)
            proc.stderr.close()
        assert [entry["name"] for entry in batch["results"]] == ["a", "b"]
        assert batch["results"][0]["report"]["consistent"] is True
        assert batch["results"][1]["report"]["consistent"] is False
        pools = [(pool["shards"], pool["tasks"]) for pool in stats["pools"]]
        assert pools == [(2, 2)], pools

    def test_serve_tcp_batch_recovers_worker_crash_with_exact_counters(self):
        """A scheduled crash kills a worker of the gateway's local pool
        mid-batch: the supervisor respawns it and retries the task, the
        13 reports still match the sequential run byte for byte, and the
        ``stats`` op reads exact counters, since each shard is one
        process."""
        from repro import BatchChecker
        from test_pool import CORPUS13

        sequential = [
            json.dumps(result.data, sort_keys=True)
            for result in BatchChecker(workers=1).check_documents(CORPUS13)
        ]
        plan = {
            "seed": 11,
            "faults": [{"kind": "crash", "shard": 0, "task": 2, "max_spawn": 0}],
        }
        proc, address = _spawn_serve_tcp(REPRO_FAULTS=json.dumps(plan))
        try:
            sock = socket.create_connection(address, timeout=120)
            with sock, sock.makefile("rwb") as stream:
                request = _line_requester(stream)
                batch = request(
                    {
                        "op": "batch",
                        "workers": 2,
                        "documents": [
                            {"name": name, "text": text}
                            for name, text in CORPUS13
                        ],
                    }
                )
                stats = request({"op": "stats"})
                request({"op": "shutdown"})
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=15)
            proc.stderr.close()
        assert batch["ok"] is True, batch
        got = [
            json.dumps(entry["report"], sort_keys=True)
            for entry in batch["results"]
        ]
        assert got == sequential
        (row,) = stats["pools"]
        assert "remote" not in row
        supervision = row["supervision"]
        assert supervision["worker_deaths"] == 1
        assert supervision["restarts"] == 1
        assert supervision["retries"] == 1
        assert supervision["attempts"] == len(CORPUS13) + 1
        assert supervision["timeouts"] == 0
        assert supervision["degraded"] is False
        # The respawned worker (spawn 1) is outside max_spawn=0.
        assert row["spawns"] == [1, 0]


def _spawn_serve_tcp(**env_extra: str):
    """Start ``python -m repro serve --tcp 127.0.0.1:0`` as deployed and
    return the process with the address from its ``listening on`` line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    env.update(env_extra)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    marker = "listening on "
    line = ""
    while not line.startswith(marker):
        line = proc.stderr.readline()
        if not line:
            proc.wait(timeout=15)
            proc.stderr.close()
            raise AssertionError("serve --tcp exited before listening")
    host, _, port = line[len(marker):].strip().rpartition(":")
    return proc, (host, int(port))


def _line_requester(stream):
    """A blocking JSON-lines request function over a socket file."""

    def request(payload: dict) -> dict:
        stream.write(json.dumps(payload).encode("utf-8") + b"\n")
        stream.flush()
        return json.loads(stream.readline())

    return request


def _gateway_counters() -> dict:
    from repro.obs.metrics import registry

    counters = registry().snapshot(full=False)["counters"]
    return {
        "dropped": counters.get("gateway.sessions_dropped", 0),
        "detached": counters.get("gateway.sessions_detached", 0),
    }


class TestInFlightDisconnect:
    """Abortive connection drops racing their own in-flight handlers.

    A client that dies mid-request leaves its handler task running when
    the connection's read loop errors out; the gateway must finish that
    handler *before* touching the session namespace — otherwise the
    handler can resurrect a session the teardown already removed and the
    slot leaks forever.  The counters make the outcome exact: ephemeral
    namespaces are dropped, journal-backed ones only detached.
    """

    async def _settle(self, gateway, server) -> None:
        for _ in range(400):  # bounded: ~20s worst case
            if gateway.stats()["connections_open"] == 0 and not any(
                name.startswith("conn") for name in server.session_names
            ):
                return
            await asyncio.sleep(0.05)
        raise AssertionError("gateway never finished tearing the connection down")

    def test_abortive_drop_with_inflight_request_cleans_namespace(self):
        async def drive():
            server = AsyncSpecServer()
            before = _gateway_counters()
            async with _Running(SpecGateway(server)) as gateway:
                client = await _Client.connect(gateway)
                added = await client.request(
                    {"op": "add", "id": "R1",
                     "text": "If the sensor is active, the valve is opened."}
                )
                names_live = server.session_names
                # Fire a check and kill the socket without reading the
                # response: the handler is now in flight with no client.
                await client.send_raw(
                    json.dumps({"op": "check", "timings": False}).encode("utf-8")
                    + b"\n"
                )
                client.writer.transport.abort()
                await self._settle(gateway, server)
                return before, _gateway_counters(), added, names_live, \
                    server.session_names

        before, after, added, names_live, names_after = asyncio.run(drive())
        assert added["ok"] is True
        assert names_live == ("conn1/default",)
        assert names_after == ()  # the in-flight check did not resurrect it
        assert after["dropped"] - before["dropped"] == 1
        assert after["detached"] - before["detached"] == 0

    def test_abortive_drop_retains_durable_session_for_resume(self, tmp_path):
        from repro.service.journal import JournalStore

        store = JournalStore(tmp_path, fsync="never")

        async def drive():
            server = AsyncSpecServer(journal_store=store)
            before = _gateway_counters()
            async with _Running(SpecGateway(server)) as gateway:
                first = await _Client.connect(gateway)
                attach1 = await first.request({"op": "attach", "token": "docB"})
                await first.request(
                    {"op": "add", "id": "R1", "rid": 1,
                     "text": "If the sensor is active, the valve is opened."}
                )
                # The edit whose acknowledgement the client never sees:
                # written, then the socket dies.
                await first.send_raw(
                    json.dumps(
                        {"op": "update", "id": "R1", "rid": 2,
                         "text": "If the sensor is active, the valve is not opened."}
                    ).encode("utf-8")
                    + b"\n"
                )
                first.writer.transport.abort()
                await self._settle(gateway, server)
                mid = _gateway_counters()
                tokens = server.durable_tokens

                # Reconnect-and-resume: attach the same token, learn the
                # watermark, retry the unacknowledged edit.
                second = await _Client.connect(gateway)
                attach2 = await second.request({"op": "attach", "token": "docB"})
                retry = await second.request(
                    {"op": "update", "id": "R1", "rid": 2,
                     "text": "If the sensor is active, the valve is not opened."}
                )
                checked = await second.request(
                    {"op": "check", "timings": False, "rid": 3}
                )
                await second.close()
                return before, mid, attach1, tokens, attach2, retry, checked

        try:
            before, mid, attach1, tokens, attach2, retry, checked = asyncio.run(
                drive()
            )
        finally:
            store.close()
        assert attach1["ok"] is True and attach1["last_rid"] is None
        # The namespace went, the durable session stayed: exact counters.
        assert mid["dropped"] - before["dropped"] == 0
        assert mid["detached"] - before["detached"] == 1
        assert tokens == ("docB",)
        # The in-flight edit WAS applied and journaled before the drop —
        # attach says so, and the retry dedupes instead of re-applying.
        assert attach2["last_rid"] == 2
        assert attach2["size"] == 1
        assert retry["duplicate"] is True
        assert checked["ok"] is True and checked["revision"] == 1
        assert store.counters()["duplicates"] == 1
