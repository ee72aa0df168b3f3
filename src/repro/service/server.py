"""The serve protocol: one request core, one request loop, two transports.

``python -m repro serve`` reads one JSON object per line from stdin and
writes one JSON response per line to stdout; ``python -m repro serve
--tcp HOST:PORT`` speaks the same protocol on a socket (see
:mod:`repro.service.gateway`).  Both transports run the same
:class:`RequestStream` loop over the same :class:`AsyncSpecServer`
core, which holds the client sessions (plus the shared process caches)
alive between requests — the daemon form of the paper's edit/re-check
maintenance loop.

Protocol (request ``op`` → response fields beyond ``{"ok": true, "op":
...}``):

* ``add`` / ``update`` — ``{"id": "R1", "text": "..."}``; ``remove`` —
  ``{"id": "R1"}``.  Respond with ``{"size": n}``.
* ``load`` — ``{"document": "..."}`` bulk-adds sentences; responds with
  ``{"added": [...], "size": n}``.
* ``check`` — responds with ``{"report": {...}, "delta": {...},
  "revision": n}``; the report is the shared
  :func:`~repro.service.reportjson.report_to_dict` format.
* ``batch`` — ``{"documents": [{"name": ..., "text": ...}, ...],
  "workers": 4, "backend": ...}``, where a document may give
  ``"requirements": [[id, text], ...]`` instead of ``"text"``; responds
  with ``{"results": [{"name": ..., "report": {...}}, ...]}`` in input
  order (``workers`` sizes the process pool only).  The default
  backend is the core's ``default_batch_backend``: ``thread`` on stdio,
  the persistent ``process`` pool over TCP.
* ``stats`` — cache statistics; ``reset`` — fresh session;
  ``shutdown`` — drain in-flight requests, acknowledge and stop.
* ``attach`` — ``{"token": "..."}`` binds the session name to a durable
  journaled session (``serve --journal DIR``, see
  :mod:`repro.service.journal`) and answers the resume handshake.
* ``metrics`` — the unified observability snapshot
  (:mod:`repro.obs.metrics`): native counters/gauges/histograms plus the
  collected ``pipeline``/``sat``/``game``/``pool``/``supervision``
  namespaces.  Additionally, *any* request may carry ``"trace": true``:
  the request runs under a per-request tracer and its span records come
  back on the response under the volatile ``"trace"`` field.
* ``ping`` / ``health`` — liveness without analysis: uptime, session
  count and stats, and the worker pools' supervision counters
  (restarts/retries/timeouts/degraded — see
  :mod:`repro.service.supervision`); ``status`` is ``"degraded"`` when
  any pool is running on its in-process fallback.

**Sessions.**  Every request may carry ``"session": "<name>"`` (default
``"default"``) selecting an isolated :class:`SpecSession`, and an
optional ``"rid"`` correlation id; the response echoes ``session``, and
``rid`` when one was sent.  Requests within one session are processed
strictly in arrival order, so per-session responses are identical to a
sequential run.  Over TCP, and on stdio once a second session exists
or a request deadline is set, blocking ops run on an executor thread,
so one session's long analysis never stalls another session's edits or
the gateway's listener.  Responses of
different sessions may interleave — clients that pipeline across
sessions correlate by ``rid``.

**Errors.**  Malformed requests produce ``{"ok": false, "error": "...",
"code": "..."}`` and the loop continues: a broken client line must not
take the daemon down.  The ``code`` field is machine-readable and
closed: ``bad_json`` (unparsable line), ``bad_request`` (parsable but
invalid — unknown op, missing or malformed fields), ``oversized`` (raw
line exceeds the request byte bound; the line terminator does not
count), ``timeout`` (the per-request deadline elapsed), ``overloaded``
(the TCP rate limit or connection cap), ``internal`` (anything else;
the daemon survives and says so rather than dropping the connection).

**Backpressure.**  A stream stops reading while ``max_queue`` of its
requests are in flight, so a client that pipelines faster than the
daemon checks is slowed down, never refused.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import stat
import sys
import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import IO, Callable, Optional

from ..core.pipeline import SpecCC
from .batch import BatchChecker
from .reportjson import report_to_dict
from .session import SessionReport, SpecSession

#: Default bound on one raw request line (1 MiB): a runaway client must
#: not be able to buffer arbitrary bytes into the daemon.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

#: Raw reads are chunked; framing is done by :func:`_iter_lines`, not by
#: StreamReader (readline's limit handling consumes differently across
#: versions).
_READ_CHUNK = 65536


class ServiceError(Exception):
    """A request failure with a machine-readable *code* (see module doc)."""

    def __init__(self, message: str, code: str = "bad_request") -> None:
        super().__init__(message)
        self.code = code


def error_code(error: BaseException) -> str:
    """The structured code for *error*."""
    if isinstance(error, ServiceError):
        return error.code
    if isinstance(error, (FuturesTimeoutError, asyncio.TimeoutError)):
        return "timeout"
    if isinstance(error, (ValueError, KeyError, TypeError)):
        return "bad_request"
    return "internal"


def error_response(error: BaseException) -> dict:
    return {"ok": False, "error": str(error), "code": error_code(error)}


def _echo(request) -> dict:
    """The correlation fields a response to *request* carries back."""
    if not isinstance(request, dict):
        return {}
    echo = {"session": str(request.get("session", "default"))}
    if "rid" in request:
        echo["rid"] = request["rid"]
    return echo


def _require(request: dict, key: str):
    if key not in request:
        raise ValueError(f"missing field {key!r}")
    return request[key]


def _delta_to_dict(report: SessionReport) -> dict:
    delta = report.delta
    return {
        "edited": list(delta.edited),
        "components": [
            {
                "identifiers": list(component.identifiers),
                "verdict": component.verdict.value,
                "reanalyzed": component.reanalyzed,
                "previous_verdict": (
                    component.previous_verdict.value
                    if component.previous_verdict is not None
                    else None
                ),
            }
            for component in delta.components
        ],
        "reanalyzed": len(delta.reanalyzed),
        "reused": len(delta.reused),
        "cache_hits": delta.cache_hits,
        "cache_misses": delta.cache_misses,
        "semantics_components": delta.semantics_components,
        "semantics_reanalysed": list(delta.semantics_reanalysed),
        "stage_seconds": dict(delta.stage_seconds),
    }


class _Server:
    """One session's state and ops, owned by an :class:`AsyncSpecServer`
    (the core holds everything sessions share: tool, batch backend and
    pool, journal store)."""

    def __init__(self, core: "AsyncSpecServer") -> None:
        self.core = core
        self.session = SpecSession(core.tool)
        #: The :class:`~repro.service.journal.DurableSession` this session
        #: is attached to, or None for a plain in-memory session.
        self.durable = None

    # -------------------------------------------------------- durability
    @staticmethod
    def _journal_rid(request: dict):
        """The request's rid, when it can participate in exactly-once
        tracking (integers only — the protocol allows arbitrary rids for
        correlation, but the dedupe watermark needs an order)."""
        rid = request.get("rid")
        return rid if isinstance(rid, int) and not isinstance(rid, bool) else None

    def _duplicate(self, request: dict) -> Optional[dict]:
        """The duplicate-ack for an already-journaled rid, or None.

        A rid at or below the journal's watermark was durably applied
        before a (possibly lost) acknowledgement: re-acknowledge without
        re-applying.  Requires clients to send monotonically increasing
        integer rids per durable session — the ``attach`` response's
        ``last_rid`` is the resume point.
        """
        if self.durable is None:
            return None
        rid = self._journal_rid(request)
        if rid is None or self.durable.last_rid is None or rid > self.durable.last_rid:
            return None
        self.durable.journal.store.record_duplicate()
        return {
            "size": len(self.session),
            "revision": self.session.revision,
            "duplicate": True,
        }

    def _journal(self, record: dict, request: dict) -> None:
        """Write-ahead append *record* (a just-applied mutation) before
        the acknowledgement leaves; advances the rid watermark."""
        if self.durable is None:
            return
        rid = self._journal_rid(request)
        if rid is not None:
            record["rid"] = rid
        self.durable.journal.append(record)
        if rid is not None:
            self.durable.last_rid = rid

    def handle(self, request: dict) -> dict:
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if op is None or handler is None:
            raise ValueError(f"unknown op {op!r}")
        if not request.get("trace"):
            return handler(request)
        # Per-request tracing: a fresh tracer scoped to this request (the
        # context variable overrides any process tracer, so concurrent
        # requests keep separate traces), its spans shipped back to the
        # client on the response under the volatile "trace" field.
        from ..obs.trace import Tracer, activated, span

        tracer = Tracer(name=f"serve.{op}")
        with activated(tracer):
            with span(f"serve.{op}", **_echo(request)):
                result = handler(request)
        result = dict(result)
        result["trace"] = tracer.drain()
        return result

    def _op_add(self, request: dict) -> dict:
        duplicate = self._duplicate(request)
        if duplicate is not None:
            return duplicate
        identifier = str(_require(request, "id"))
        text = str(_require(request, "text"))
        self.session.add(identifier, text)
        self._journal({"op": "add", "id": identifier, "text": text}, request)
        return {"size": len(self.session)}

    def _op_update(self, request: dict) -> dict:
        duplicate = self._duplicate(request)
        if duplicate is not None:
            return duplicate
        identifier = str(_require(request, "id"))
        text = str(_require(request, "text"))
        self.session.update(identifier, text)
        self._journal({"op": "update", "id": identifier, "text": text}, request)
        return {"size": len(self.session)}

    def _op_remove(self, request: dict) -> dict:
        duplicate = self._duplicate(request)
        if duplicate is not None:
            return duplicate
        identifier = str(_require(request, "id"))
        self.session.remove(identifier)
        self._journal({"op": "remove", "id": identifier}, request)
        return {"size": len(self.session)}

    def _op_load(self, request: dict) -> dict:
        duplicate = self._duplicate(request)
        if duplicate is not None:
            return duplicate
        document = str(_require(request, "document"))
        added = self.session.load_document(document)
        self._journal({"op": "load", "document": document}, request)
        return {"added": list(added), "size": len(self.session)}

    def _op_check(self, request: dict) -> dict:
        timings = bool(request.get("timings", True))
        duplicate = self._duplicate(request)
        if duplicate is not None:
            # The check this rid named already ran (and was journaled);
            # re-acknowledge with its report.  The original delta
            # belonged to the lost acknowledgement and is not replayable
            # in isolation, so the duplicate ack carries none.
            last = self.session.last_report
            duplicate.pop("size", None)
            if last is not None:
                duplicate["report"] = report_to_dict(last.report, timings=timings)
                duplicate["revision"] = last.revision
                duplicate["seconds"] = None
            return duplicate
        session_report = self.session.check()
        self._journal({"op": "check"}, request)
        if self.durable is not None and self.durable.journal.should_compact():
            # Compaction only at check boundaries: the session has no
            # pending edits, so one snapshot record captures it exactly.
            self.durable.journal.compact(self.session, self.durable.last_rid)
        return {
            "report": report_to_dict(session_report.report, timings=timings),
            "delta": _delta_to_dict(session_report),
            "revision": session_report.revision,
            "seconds": session_report.seconds if timings else None,
        }

    #: Upper bound on client-requested batch worker/shard counts.  The
    #: process backend keeps one persistent pool per distinct shard count
    #: alive for the daemon's lifetime, so the request field must not be
    #: able to spawn workers without bound.
    MAX_BATCH_WORKERS = 8

    def _op_batch(self, request: dict) -> dict:
        documents = _require(request, "documents")
        if not isinstance(documents, (list, tuple)):
            raise ValueError(
                "documents must be an array of objects, got "
                f"{type(documents).__name__}"
            )
        items = []
        for position, entry in enumerate(documents):
            # Shape-checked explicitly: a list or string entry would raise
            # AttributeError below, which error_code() classifies as
            # "internal" — but a malformed request is the client's fault
            # and must say "bad_request".
            if not isinstance(entry, dict):
                raise ValueError(
                    f"documents[{position}] must be an object with 'text' "
                    f"or 'requirements', got {type(entry).__name__}"
                )
            name = str(entry.get("name", f"doc{len(items) + 1}"))
            if "text" in entry:
                items.append((name, str(entry["text"])))
            elif "requirements" in entry:
                pairs = entry["requirements"]
                # Unpacking a string or an object would silently split
                # "R1" into the requirement ("R", "1").
                if not isinstance(pairs, (list, tuple)) or not all(
                    isinstance(pair, (list, tuple)) and len(pair) == 2
                    for pair in pairs
                ):
                    raise ValueError(
                        f"documents[{position}].requirements must be an "
                        "array of [id, text] pairs"
                    )
                items.append((name, [(str(i), str(t)) for i, t in pairs]))
            else:
                raise ValueError(f"document {name!r} has neither text nor requirements")
        # Share the session's tool so batch requests judge documents with
        # the same config as session checks.
        checker = BatchChecker(
            tool=self.core.tool,
            workers=max(1, min(int(request.get("workers", 4)), self.MAX_BATCH_WORKERS)),
            backend=str(request.get("backend", self.core.default_batch_backend)),
        )
        results = checker.check_documents(items)
        return {
            "results": [
                {"name": result.name, "report": result.data} for result in results
            ]
        }

    def _op_stats(self, request: dict) -> dict:
        from .pool import shared_pool_stats
        from .reportjson import stats_to_dict

        store = self.core.journal_store
        payload = stats_to_dict(
            self.session.translation_cache,
            pools=shared_pool_stats(),
            journal=store.stats() if store is not None else None,
        )
        payload["size"] = len(self.session)
        payload["sessions"] = self.core.session_count
        return payload

    def _op_metrics(self, request: dict) -> dict:
        """The full :class:`~repro.obs.metrics.MetricsRegistry` snapshot:
        native counters/gauges/histograms plus every collected namespace
        (``pipeline``/``sat``/``game``/``pool``/``supervision``).  Pass
        ``"full": false`` to drop the histogram bucket arrays."""
        from ..obs.metrics import registry

        return {"metrics": registry().snapshot(full=bool(request.get("full", True)))}

    def _op_ping(self, request: dict) -> dict:
        """Liveness + supervision summary, no analysis work."""
        from .pool import shared_pool_stats
        from .supervision import aggregate_stats

        supervision = aggregate_stats(shared_pool_stats())
        return {
            "status": "degraded" if supervision["degraded"] else "ok",
            "uptime_seconds": time.monotonic() - self.core.started,
            "sessions": self.core.session_count,
            "session_stats": self.session.stats(),
            "supervision": supervision,
        }

    def _op_health(self, request: dict) -> dict:
        return self._op_ping(request)

    def _op_reset(self, request: dict) -> dict:
        duplicate = self._duplicate(request)
        if duplicate is not None:
            return duplicate
        self.session = SpecSession(self.core.tool)
        if self.durable is not None:
            self.durable.session = self.session
            self._journal({"op": "reset"}, request)
        return {"size": 0}

    def _op_shutdown(self, request: dict) -> dict:
        self.core.running = False
        return {}


#: Response fields that legitimately differ between a concurrent run and
#: a dedicated sequential one: correlation echoes, wall-clock seconds,
#: and observability counters concurrent sessions bleed into (see
#: :class:`~repro.service.session.SessionDelta`).  Anything comparing
#: responses against sequential references (the service benchmark and
#: the test suite both do) strips exactly these — one list, so the
#: comparisons cannot drift apart.
VOLATILE_RESPONSE_FIELDS = (
    "session",
    "rid",
    "seconds",
    "pools",
    "sessions",
    "supervision",
    "uptime_seconds",
    "session_stats",
    "trace",
    "metrics",
    "histograms",
    "journal",
    "replayed_records",
)
VOLATILE_DELTA_FIELDS = (
    "cache_hits",
    "cache_misses",
    "stage_seconds",
)


def normalize_response(response: dict) -> dict:
    """Copy of *response* with the volatile fields stripped.

    What remains — reports, verdicts, deltas, revisions — is a pure
    function of the session's request sequence, so it must compare equal
    (byte-for-byte once serialized with ``sort_keys``) against a
    dedicated sequential run.
    """
    response = dict(response)
    for key in VOLATILE_RESPONSE_FIELDS:
        response.pop(key, None)
    delta = response.get("delta")
    if isinstance(delta, dict):
        response["delta"] = {
            key: value
            for key, value in delta.items()
            if key not in VOLATILE_DELTA_FIELDS
        }
    return response


class AsyncSpecServer:
    """The request core: every transport's requests end here.

    Each session name owns an isolated :class:`_Server` (its own
    :class:`SpecSession`) sharing the process-wide tool and caches, plus
    an :class:`asyncio.Lock` that serialises that session's requests in
    arrival order — so every session observes exactly the semantics of a
    dedicated sequential loop, while different sessions make progress
    concurrently.  Blocking ops (:attr:`OFFLOADED_OPS`) run on an
    executor thread whenever something could wait on them — a second
    session, a request deadline to enforce, or a prefixed caller (a TCP
    connection, whose event loop also accepts new connections).  The
    lone unprefixed session of stdio ``serve`` without a deadline runs
    them inline, since there is nothing for them to stall and the thread
    hop would only add latency and memory.
    """

    #: Ops that can run long: handled off-loop so one session's analysis
    #: never blocks another session's edits.  ``stats``/``ping``/``health``
    #: are here because they read ``pool.stats()``, whose lock a concurrent
    #: batch may hold for the whole worker spawn while the pool starts up.
    OFFLOADED_OPS = frozenset({"check", "batch", "stats", "metrics", "ping", "health"})
    #: The protocol surface; requests are validated against this *before*
    #: a session is created, so invalid traffic cannot allocate state.
    VALID_OPS = frozenset(
        name[len("_op_"):] for name in vars(_Server) if name.startswith("_op_")
    ) | {"attach"}

    def __init__(
        self,
        tool: Optional[SpecCC] = None,
        default_batch_backend: str = "thread",
        max_sessions: int = 256,
        request_timeout: Optional[float] = None,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        max_queue: int = 64,
        journal_store=None,
    ) -> None:
        """*default_batch_backend* answers ``batch`` requests that name no
        backend; ``backend="process"`` runs on the process-wide
        :func:`~repro.service.pool.shared_pool`, one set of warm workers
        for every session and connection.

        *max_sessions* bounds the number of concurrently held client
        sessions: each named session keeps a :class:`SpecSession` alive
        for the daemon's lifetime, so client-chosen names must not be
        able to grow memory without bound.

        *request_timeout* is a per-request wall-clock deadline (None
        disables it): a request that exceeds it gets a structured
        ``timeout`` error instead of stalling its session forever.
        *max_request_bytes* bounds one raw request line (``oversized``).
        *max_queue* bounds the requests one stream keeps in flight; at the
        bound the stream stops reading until one completes.

        *journal_store* enables durable sessions: every journal found in
        the store's directory is replayed eagerly here (startup, not
        first-touch, so recovery cost is paid once and ``attach`` is
        cheap), and the ``attach`` op binds client session names to
        durable tokens.  Durable sessions survive :meth:`drop_sessions`
        — a disconnecting TCP client only unbinds its *alias*
        (:meth:`detach_sessions`); the journaled state stays attachable.
        """
        self.tool = tool if tool is not None else SpecCC()
        self.default_batch_backend = default_batch_backend
        self.max_sessions = max_sessions
        self.request_timeout = request_timeout
        self.max_request_bytes = max_request_bytes
        self.max_queue = max_queue
        self.journal_store = journal_store
        self.started = time.monotonic()
        self._sessions: dict = {}
        self._locks: dict = {}
        self._durable: dict = {}  # token -> _Server (survives disconnects)
        self._durable_locks: dict = {}  # token -> asyncio.Lock (lazy: see below)
        self._aliases: dict = {}  # client session name -> durable token
        self.running = True
        if journal_store is not None:
            for token, durable in sorted(journal_store.recover(self.tool).items()):
                self._adopt_durable(token, durable)

    @property
    def session_names(self) -> tuple:
        return tuple(self._sessions)

    @property
    def durable_tokens(self) -> tuple:
        return tuple(sorted(self._durable))

    @property
    def session_count(self) -> int:
        return len(self._sessions) + len(self._durable)

    def drop_sessions(self, prefix: str) -> int:
        """Discard every ephemeral session whose name starts with *prefix*.

        The TCP gateway namespaces each connection's sessions under a
        per-connection prefix and drops the namespace when the
        connection closes — without this, every reconnecting client
        would permanently consume ``max_sessions`` slots.  Durable
        sessions are *not* dropped (only their aliases are, via
        :meth:`detach_sessions` — surviving the disconnect is their
        reason to exist).  Returns the number of sessions dropped.
        """
        names = [name for name in self._sessions if name.startswith(prefix)]
        for name in names:
            self._sessions.pop(name, None)
            self._locks.pop(name, None)
        return len(names)

    def detach_sessions(self, prefix: str) -> int:
        """Unbind every durable-session alias starting with *prefix*.

        The journaled sessions themselves are retained — a reconnecting
        client re-``attach``\\ es its token and resumes.  Returns the
        number of aliases unbound.
        """
        names = [name for name in self._aliases if name.startswith(prefix)]
        for name in names:
            self._aliases.pop(name, None)
        return len(names)

    def _adopt_durable(self, token: str, durable):
        """The dedicated :class:`_Server` bound to durable *token* (the
        journal's session becomes the server's)."""
        server = _Server(self)
        server.durable = durable
        server.session = durable.session
        self._durable[token] = server
        return server

    def _durable_lock(self, token: str) -> asyncio.Lock:
        # Lazily created because __init__ (which recovers durable
        # sessions eagerly) may run outside any event loop, where
        # asyncio.Lock() misbehaves on older Pythons.
        lock = self._durable_locks.get(token)
        if lock is None:
            lock = asyncio.Lock()
            self._durable_locks[token] = lock
        return lock

    def _check_capacity(self) -> None:
        if self.session_count >= self.max_sessions:
            raise ValueError(
                f"too many sessions (max {self.max_sessions}); "
                "reuse or reset an existing session"
            )

    def _attach(self, request: dict, name: str) -> dict:
        """The ``attach`` op: bind session *name* to a durable token.

        The handshake payload carries what a resuming client needs to
        resynchronise — most importantly ``last_rid``, the largest
        integer rid the journal has durably applied, which tells the
        client whether its unacknowledged in-flight edit landed before
        the crash (retry it either way: rids at or below the watermark
        are deduplicated, not re-applied).  Two clients may attach the
        same token (e.g. before and after a reconnect); the shared
        per-token lock keeps its requests strictly sequential.
        """
        if self.journal_store is None:
            raise ServiceError(
                "durable sessions are not enabled (start serve with --journal DIR)"
            )
        token = str(_require(request, "token"))
        from .journal import validate_token

        validate_token(token)
        server = self._durable.get(token)
        if server is None:
            self._check_capacity()
            server = self._adopt_durable(
                token, self.journal_store.attach(token, self.tool)
            )
        self._aliases[name] = token
        durable = server.durable
        return {
            "token": durable.token,
            "size": len(durable.session),
            "revision": durable.session.revision,
            "last_rid": durable.last_rid,
            "replayed_records": durable.replayed_records,
        }

    def _session(self, name: str):
        token = self._aliases.get(name)
        if token is not None:
            server = self._durable.get(token)
            if server is not None:
                return server, self._durable_lock(token)
            self._aliases.pop(name, None)  # store was closed underneath
        server = self._sessions.get(name)
        if server is None:
            self._check_capacity()
            server = _Server(self)
            self._sessions[name] = server
            self._locks[name] = asyncio.Lock()
        return server, self._locks[name]

    async def handle_request(self, request, prefix: str = "") -> dict:
        """One request in, one response dict out; never raises.

        The request's session name is looked up under *prefix* (the TCP
        gateway passes ``conn<N>/`` so connections cannot see each
        other's sessions); the response echoes the name the client sent.
        """
        echo = _echo(request)
        try:
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            op = request.get("op")
            if op not in self.VALID_OPS:
                # Rejected before _session(): invalid traffic must not
                # allocate per-session state.
                raise ValueError(f"unknown op {op!r}")
            name = prefix + echo["session"]
            if op == "attach":
                # Attaching binds the session *name* to a durable token,
                # which is core state, not session state.  Fast (recovery
                # already ran eagerly) and allocation-checked: inline.
                result = self._attach(request, name)
            else:
                result = await self._dispatch(name, op, request, prefix)
        except Exception as error:  # noqa: BLE001 - the daemon must survive
            response = error_response(error)
            response.update(echo)
            return response
        response = {"ok": True, "op": op}
        response.update(echo)
        response.update(result)
        return response

    async def _dispatch(self, name: str, op: str, request: dict, prefix: str) -> dict:
        server, lock = self._session(name)
        await lock.acquire()  # in-order, one at a time per session
        release: Optional[Callable[[], None]] = lock.release
        try:
            if op not in self.OFFLOADED_OPS or (
                not prefix
                and self.request_timeout is None
                and self.session_count == 1
            ):
                return server.handle(request)
            work = asyncio.get_running_loop().run_in_executor(
                None, server.handle, request
            )
            if self.request_timeout is None:
                return await work
            try:
                return await asyncio.wait_for(
                    asyncio.shield(work), timeout=self.request_timeout
                )
            except asyncio.TimeoutError:
                # The deadline abandons the *response*, not the handler:
                # it keeps running on its executor thread, still mutating
                # this session.  Releasing the lock here would let the
                # session's next request interleave with it, so the lock
                # is handed to the abandoned future and released only
                # when it actually completes.  (shield() keeps *work*
                # uncancelled so that completion is observable.)
                release = None

                def _release_when_done(future) -> None:
                    if not future.cancelled():
                        future.exception()  # consumed, never re-raised
                    lock.release()

                work.add_done_callback(_release_when_done)
                raise ServiceError(
                    f"request exceeded {self.request_timeout}s", code="timeout"
                ) from None
        finally:
            if release is not None:
                release()


# --------------------------------------------------------------- the loop
async def _iter_lines(reader, max_bytes: int):
    """Yield ``(line_bytes, oversized)`` per newline-framed record.

    Byte-exact bound enforcement with guaranteed resync: the line
    terminator (``\\n`` or ``\\r\\n``) does not count against *max_bytes*,
    and once the accumulating line passes the bound the reader discards
    until the next newline and yields one ``(b"", True)`` marker for the
    whole line — so a client streaming a gigabyte line costs one bounded
    buffer and one error response, never memory, never framing.
    """
    buffer = bytearray()
    discarding = False
    while True:
        chunk = await reader.read(_READ_CHUNK)
        if not chunk:
            if discarding or len(buffer) > max_bytes:
                yield b"", True
            elif buffer:
                yield bytes(buffer), False
            return
        buffer.extend(chunk)
        while True:
            index = buffer.find(b"\n")
            if index < 0:
                if len(buffer) > max_bytes:
                    discarding = True
                    buffer.clear()
                break
            line = bytes(buffer[:index].rstrip(b"\r"))
            del buffer[: index + 1]
            if discarding:
                discarding = False
                yield b"", True
            elif len(line) > max_bytes:
                yield b"", True
            else:
                yield line, False


def _is_shutdown(request) -> bool:
    return isinstance(request, dict) and request.get("op") == "shutdown"


class RequestStream:
    """One client stream over the core: the protocol's only request loop.

    The loop frames raw bytes (:func:`_iter_lines`), answers
    ``oversized`` and ``bad_json`` itself, takes a token from *bucket*
    (when the transport rate-limits) for every non-empty line before
    parsing it, dispatches each request as its own task through
    :meth:`AsyncSpecServer.handle_request` under *prefix*, and stops
    reading while ``max_queue`` requests are in flight.  A line the loop
    answers itself is answered after the earlier requests of the session
    it names (``default`` when it names none), so a sequential client
    sees its answers in order while other sessions' work never delays
    them.  On ``shutdown`` (when *allow_shutdown*) or :meth:`stop` it
    stops reading, and :meth:`run` returns once every in-flight request
    has been answered.  Transports provide :meth:`send`.
    """

    def __init__(
        self,
        server: AsyncSpecServer,
        reader,
        prefix: str = "",
        bucket=None,
        allow_shutdown: bool = True,
    ) -> None:
        self.server = server
        self.reader = reader
        self.prefix = prefix
        self.bucket = bucket
        self.allow_shutdown = allow_shutdown
        self.pending: dict = {}  # in-flight task -> its session name
        self._reading: Optional[asyncio.Future] = None
        self._stopped = False

    async def send(self, line: str) -> None:
        """Write one response line to the client."""
        raise NotImplementedError

    def count(self, event: str) -> None:
        """Record a protocol event (``requests``, ``oversized``,
        ``rate_limited``); the TCP gateway counts them."""

    def stop(self) -> None:
        """Stop reading requests; :meth:`run` drains and returns."""
        self._stopped = True
        if self._reading is not None:
            self._reading.cancel()

    async def run(self) -> None:
        """Serve until EOF, ``shutdown`` or :meth:`stop`, then drain."""
        self._reading = asyncio.ensure_future(self._read())
        try:
            await self._reading
        except asyncio.CancelledError:
            if not self._stopped:
                raise
        finally:
            await self.drain()

    async def drain(self, session: Optional[str] = None) -> None:
        """Wait until every in-flight request (of *session* only, when
        given) has been answered."""
        waiting = [
            task
            for task, name in self.pending.items()
            if session is None or name == session
        ]
        if waiting:
            # wait(), not gather(): a cancelled drain must not cancel
            # the requests it was waiting for.
            await asyncio.wait(waiting)

    async def write(self, response: dict) -> None:
        try:
            await self.send(json.dumps(response, sort_keys=True) + "\n")
        except (OSError, ValueError):
            # The client went away (broken pipe, closed stream): read no
            # further; in-flight requests still finish.
            self.stop()

    async def _read(self) -> None:
        server = self.server
        async for line, oversized in _iter_lines(self.reader, server.max_request_bytes):
            line = line.strip()
            if not (line or oversized):
                continue
            request, response = self._screen(line, oversized)
            if response is not None:
                await self.drain(response.get("session", "default"))
                await self.write(response)
            elif _is_shutdown(request):
                # Global shutdown: everything already accepted finishes
                # first, then the acknowledgement, then nothing more.
                await self.drain()
                self._answer(request)
                return
            else:
                self._answer(request)
                while self.pending and len(self.pending) >= server.max_queue:
                    await asyncio.wait(
                        list(self.pending), return_when=asyncio.FIRST_COMPLETED
                    )

    def _screen(self, line: bytes, oversized: bool):
        """``(request, None)`` to dispatch, or ``(None, response)`` when
        the loop answers the line itself."""
        if oversized:
            self.count("oversized")
            error = ServiceError(
                f"request line exceeds {self.server.max_request_bytes} bytes",
                code="oversized",
            )
            return None, error_response(error)
        self.count("requests")
        admitted = self.bucket is None or self.bucket.acquire()
        try:
            request = json.loads(line.decode("utf-8"))
        except Exception as error:  # noqa: BLE001 - bad bytes, bad JSON
            if admitted:
                return None, {
                    "ok": False,
                    "error": f"malformed JSON: {error}",
                    "code": "bad_json",
                }
            request = None
        if not admitted:
            self.count("rate_limited")
            error = ServiceError(
                f"rate limit exceeded ({self.bucket.rate:g} requests/s, "
                f"burst {self.bucket.burst:g}); retry later",
                code="overloaded",
            )
        elif _is_shutdown(request) and not self.allow_shutdown:
            error = ServiceError(
                "shutdown over the network is disabled on this gateway; "
                "signal the server process instead"
            )
        else:
            return request, None
        response = error_response(error)
        response.update(_echo(request))
        return None, response

    def _answer(self, request) -> None:
        task = asyncio.ensure_future(self._respond(request))
        self.pending[task] = _echo(request).get("session", "default")
        task.add_done_callback(self._forget)

    def _forget(self, task: asyncio.Future) -> None:
        self.pending.pop(task, None)

    async def _respond(self, request) -> None:
        await self.write(await self.server.handle_request(request, self.prefix))


def _trap_signals(callback: Callable[[], None]) -> Callable[[], None]:
    """Route SIGTERM/SIGINT to *callback* on the running loop; returns
    the function restoring the previous dispositions.  Off the main
    thread (where signals cannot be trapped) nothing is installed."""
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous = signal.getsignal(signum)
        try:
            loop.add_signal_handler(signum, callback)
        except (NotImplementedError, RuntimeError, ValueError):
            break
        installed.append((signum, previous))

    def restore() -> None:
        for signum, previous in installed:
            loop.remove_signal_handler(signum)
            if previous is not None:
                signal.signal(signum, previous)

    return restore


# ------------------------------------------------------------------ stdio
class _ThreadReader:
    """``await read(n)`` over a blocking *read* function; each read runs
    on its own daemon thread.

    Daemon, not the default executor: :func:`asyncio.run` joins executor
    threads, and a read blocked on an idle stdin would keep a signalled
    daemon alive until stdin closed.  Only one read is outstanding at a
    time, so a paused stream stops consuming input.
    """

    def __init__(self, read: Callable[[int], bytes]) -> None:
        self._read = read
        self._loop = asyncio.get_running_loop()

    async def read(self, size: int) -> bytes:
        future = self._loop.create_future()
        threading.Thread(
            target=self._run, args=(size, future), name="serve-stdin", daemon=True
        ).start()
        return await future

    def _run(self, size: int, future: asyncio.Future) -> None:
        try:
            chunk = self._read(size)
        except (OSError, ValueError):
            chunk = b""
        try:
            self._loop.call_soon_threadsafe(_resolve, future, chunk)
        except RuntimeError:  # the loop closed while the read blocked
            pass


def _resolve(future: asyncio.Future, value) -> None:
    if not future.cancelled():
        future.set_result(value)


async def _open_stdin(stdin):
    """A reader (``await read(n)``) over *stdin*, plus its closer."""
    try:
        fd = stdin.fileno()
    except (AttributeError, OSError, ValueError):
        fd = None
    if fd is not None and stat.S_ISFIFO(os.fstat(fd).st_mode):
        # A pipe — how programs drive serve — is watched by the event
        # loop itself: no thread hop per request.
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        transport, _ = await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader),
            open(fd, "rb", buffering=0, closefd=False),
        )

        def close() -> None:
            transport.close()
            os.set_blocking(fd, True)

        return reader, close
    if fd is not None:

        def read(size: int) -> bytes:
            return os.read(fd, size)

    else:  # an in-memory stream (tests); text is encoded

        def read(size: int) -> bytes:
            data = stdin.read(size)
            return data.encode("utf-8") if isinstance(data, str) else data

    return _ThreadReader(read), lambda: None


class _StdioStream(RequestStream):
    """The request loop over stdin/stdout: no prefix, no rate limit."""

    def __init__(self, server: AsyncSpecServer, reader, stdout: IO[str]) -> None:
        super().__init__(server, reader)
        self.stdout = stdout

    async def send(self, line: str) -> None:
        self.stdout.write(line)
        self.stdout.flush()


async def _serve_stdio(server: AsyncSpecServer, stdin, stdout) -> int:
    if server.journal_store is not None:
        # The stdio client's session is durable as token "default": a
        # restart on the same journal directory resumes it.
        server._attach({"token": "default"}, "default")
    reader, close = await _open_stdin(stdin)
    stream = _StdioStream(server, reader, stdout)
    restore = _trap_signals(stream.stop)
    try:
        await stream.run()
    finally:
        restore()
        close()
    return 0


def serve(
    stdin: Optional[IO[str]] = None,
    stdout: Optional[IO[str]] = None,
    server: Optional[AsyncSpecServer] = None,
) -> int:
    """Run the request loop over stdio until EOF, ``shutdown``, SIGTERM
    or SIGINT (``python -m repro serve``); returns 0.

    *server* is the core (default: a fresh :class:`AsyncSpecServer`,
    whose ``batch`` default is the ``thread`` backend).  With a journal
    store every journal is recovered and session ``"default"`` is bound
    to token ``"default"``.  A signal drains like ``shutdown``: in-flight
    requests finish and their responses flush, then stdout and the
    journal are flushed.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    server = server if server is not None else AsyncSpecServer()
    try:
        return asyncio.run(_serve_stdio(server, stdin, stdout))
    finally:
        try:
            stdout.flush()
        except (OSError, ValueError):
            pass
        if server.journal_store is not None:
            server.journal_store.sync_all()
