"""TCP gateway: the JSON-lines serve protocol across machine boundaries.

``python -m repro serve --tcp HOST:PORT`` puts the *exact* protocol the
stdio front end speaks onto a listening socket.  The gateway adds no
second protocol implementation: every connection runs the same
:class:`~repro.service.server.RequestStream` loop over the same
:class:`~repro.service.server.AsyncSpecServer` core, so ops, session
semantics, framing and the closed error-code vocabulary (``bad_json`` /
``bad_request`` / ``oversized`` / ``timeout`` / ``overloaded`` /
``internal``) are identical by construction.  What the network boundary
*does* add lives here, and only here:

* **Per-connection session namespacing.**  A connection's session names
  are looked up under ``conn<N>/`` and echoed back as the client sent
  them, so two clients using ``"default"`` get isolated
  :class:`~repro.service.server.SpecSession` state, exactly as if each
  had its own stdio server — and a closing connection drops its whole
  namespace (:meth:`AsyncSpecServer.drop_sessions`), so reconnecting
  clients cannot leak the server's ``MAX_SESSIONS`` slots.  Because the
  requests are prefixed, the core runs every blocking op (``check``,
  ``batch``, ...) on an executor thread: one client's long check never
  stalls the listener or another client.
* **Admission control.**  A per-connection deterministic token bucket
  (``rate`` requests/second, ``burst`` capacity) answers excess lines —
  malformed ones included — with ``overloaded``, and a connection cap
  answers excess clients with one ``overloaded`` line before close.
  Admission control is always an error *response*, never a silently
  dropped request.
* **Shutdown gate and graceful drain.**  A client ``shutdown`` op is
  refused when ``--no-client-shutdown`` is set.  ``SIGTERM``/``SIGINT``
  (or an accepted ``shutdown``) stops accepting, lets every in-flight
  request finish and its response flush, then closes.

Observability: ``gateway.*`` counters (connections, requests,
rate-limited, oversized, rejected) land in the process
:func:`~repro.obs.metrics.registry`, and a ``gateway`` collector
namespace exposes live connection state — both readable over the wire
through the ordinary ``metrics`` op.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import sys
import time
from typing import Dict, Optional, Tuple

from ..obs.metrics import registry
from .server import (
    AsyncSpecServer,
    RequestStream,
    ServiceError,
    _trap_signals,
    error_response,
)

logger = logging.getLogger("repro.service.gateway")


class TokenBucket:
    """Deterministic token bucket: *rate* tokens/second, *burst* capacity.

    Refill is computed from the injected *clock* at acquisition time (no
    background task), so tests can drive it with a fake clock and assert
    exact admit/reject sequences.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._clock = clock
        self._last = clock()

    def acquire(self, tokens: float = 1.0) -> bool:
        now = self._clock()
        self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
        self._last = now
        if self.tokens >= tokens:
            self.tokens -= tokens
            return True
        return False


class _Connection(RequestStream):
    """One client connection: the request loop under ``conn<N>/`` with
    the gateway's token bucket and shutdown gate, writing to a socket."""

    def __init__(
        self, gateway: "SpecGateway", number: int, reader, writer
    ) -> None:
        super().__init__(
            gateway.server,
            reader,
            prefix=f"conn{number}/",
            bucket=(
                TokenBucket(gateway.rate, gateway.burst, clock=gateway.clock)
                if gateway.rate is not None
                else None
            ),
            allow_shutdown=gateway.allow_shutdown,
        )
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.task: Optional[asyncio.Future] = None

    async def send(self, line: str) -> None:
        # One writer at a time: concurrent drain() calls are not safe on
        # every supported Python.
        async with self.write_lock:
            self.writer.write(line.encode("utf-8"))
            await self.writer.drain()

    def count(self, event: str) -> None:
        registry().counter(f"gateway.{event}")

    async def close(self) -> None:
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class SpecGateway:
    """The listening front end wrapping one shared
    :class:`~repro.service.server.AsyncSpecServer`.

    *rate*/*burst* arm the per-connection token bucket (None disables
    it); *max_connections* caps concurrently served clients (excess
    connections get one ``overloaded`` line and a close);
    *allow_shutdown* gates the client-initiated ``shutdown`` op —
    disable it on shared deployments so one client cannot stop the
    service for everyone.  *clock* feeds the token buckets (tests).
    """

    def __init__(
        self,
        server: Optional[AsyncSpecServer] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 64,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        allow_shutdown: bool = True,
        clock=time.monotonic,
    ) -> None:
        self.server = server if server is not None else AsyncSpecServer()
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.rate = rate
        self.burst = burst if burst is not None else (rate if rate else None)
        self.allow_shutdown = allow_shutdown
        self.clock = clock
        self._tcp: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[int, _Connection] = {}
        self._numbers = itertools.count(1)
        self._draining = False
        self._done: Optional[asyncio.Event] = None
        self._signal_drain: Optional[asyncio.Future] = None
        self._accepted = 0
        self._rejected = 0

    # ---------------------------------------------------------- lifecycle
    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    async def start(self) -> Tuple[str, int]:
        """Bind and begin accepting; returns the bound ``(host, port)``."""
        if self._tcp is not None:
            return self.address
        self._done = asyncio.Event()
        self._tcp = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.host, self.port = self._tcp.sockets[0].getsockname()[:2]
        registry().register_collector("gateway", self.stats)
        logger.info("gateway listening on %s:%d", self.host, self.port)
        return self.address

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, close."""
        if self._draining:
            return
        self._draining = True
        logger.info("gateway draining (%d connections)", len(self._connections))
        if self._tcp is not None:
            self._tcp.close()
        connections = list(self._connections.values())
        for connection in connections:
            connection.stop()
        if connections:
            await asyncio.wait([connection.task for connection in connections])
        if self._tcp is not None:
            await self._tcp.wait_closed()
        if self._done is not None:
            self._done.set()

    async def run(self) -> int:
        """Serve until a drain completes (signal or client shutdown)."""
        await self.start()
        restore = _trap_signals(self._on_signal)
        try:
            assert self._done is not None
            await self._done.wait()
        finally:
            restore()
        return 0

    def _on_signal(self) -> None:
        # Keep the drain task referenced: the loop holds tasks weakly.
        self._signal_drain = asyncio.ensure_future(self.shutdown())

    # --------------------------------------------------------- connections
    async def _on_connection(self, reader, writer) -> None:
        if self._draining or len(self._connections) >= self.max_connections:
            self._rejected += 1
            registry().counter("gateway.rejected")
            reason = (
                "gateway is shutting down"
                if self._draining
                else f"gateway at capacity ({self.max_connections} connections)"
            )
            try:
                writer.write(
                    (
                        json.dumps(
                            error_response(
                                ServiceError(reason, code="overloaded")
                            ),
                            sort_keys=True,
                        )
                        + "\n"
                    ).encode("utf-8")
                )
                await writer.drain()
                writer.close()
            except (ConnectionError, OSError):
                pass
            return
        number = next(self._numbers)
        connection = _Connection(self, number, reader, writer)
        connection.task = asyncio.current_task()
        self._connections[number] = connection
        self._accepted += 1
        registry().counter("gateway.connections")
        try:
            await connection.run()
        except (ConnectionError, OSError):
            pass  # half-open sockets surface here; namespace cleanup below
        finally:
            self._connections.pop(number, None)
            # run() returns only once every in-flight request of the
            # connection has been answered — also after an abortive
            # disconnect — so no handler can resurrect a session the
            # drop below removes.
            dropped = self.server.drop_sessions(connection.prefix)
            if dropped:
                registry().counter("gateway.sessions_dropped", dropped)
            detached = self.server.detach_sessions(connection.prefix)
            if detached:
                # Durable (journal-backed) sessions are retained for
                # re-attach; only the connection's aliases go.
                registry().counter("gateway.sessions_detached", detached)
            await connection.close()
        if not self.server.running:
            # This client's shutdown was accepted: drain every connection.
            await self.shutdown()

    # ------------------------------------------------------- observability
    def stats(self) -> dict:
        return {
            "address": f"{self.host}:{self.port}",
            "connections_open": len(self._connections),
            "connections_total": self._accepted,
            "connections_rejected": self._rejected,
            "draining": self._draining,
            "rate": self.rate,
            "burst": self.burst,
            "max_connections": self.max_connections,
        }


def serve_tcp(
    host: str,
    port: int,
    tool=None,
    request_timeout: Optional[float] = None,
    max_request_bytes: Optional[int] = None,
    max_queue: int = 64,
    max_connections: int = 64,
    rate: Optional[float] = None,
    burst: Optional[float] = None,
    allow_shutdown: bool = True,
    journal_store=None,
) -> int:
    """Blocking entry point of ``python -m repro serve --tcp HOST:PORT``.

    Prints one ``listening on HOST:PORT`` line to stderr once bound
    (port 0 picks a free port — harnesses parse this line), then serves
    until SIGTERM/SIGINT or a client ``shutdown``.  ``batch`` requests
    default to the gateway's persistent local process pool
    (:func:`~repro.service.pool.shared_pool`).  With *journal_store*
    every journal in the store directory is recovered before the socket
    binds, and clients get the ``attach`` durable-session op.
    """
    from .server import DEFAULT_MAX_REQUEST_BYTES

    server = AsyncSpecServer(
        tool,
        default_batch_backend="process",
        request_timeout=request_timeout,
        max_request_bytes=(
            max_request_bytes
            if max_request_bytes is not None
            else DEFAULT_MAX_REQUEST_BYTES
        ),
        max_queue=max_queue,
        journal_store=journal_store,
    )
    gateway = SpecGateway(
        server,
        host=host,
        port=port,
        max_connections=max_connections,
        rate=rate,
        burst=burst,
        allow_shutdown=allow_shutdown,
    )

    async def main() -> int:
        await gateway.start()
        print(
            f"listening on {gateway.host}:{gateway.port}",
            file=sys.stderr,
            flush=True,
        )
        return await gateway.run()

    try:
        return asyncio.run(main())
    finally:
        if journal_store is not None:
            journal_store.sync_all()
