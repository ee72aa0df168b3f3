"""Durable sessions: a per-session write-ahead journal with
crash-consistent recovery.

Every :class:`~repro.service.session.SpecSession` the serving tier holds
lives purely in memory, so before this module a crash or restart of
``serve`` or ``serve --tcp`` threw away every client's
session and forced full cold re-analysis of every open document.  The
journal makes session state *durable and replayable*:

* **Append-only record log.**  Each session mutation (``add`` /
  ``update`` / ``remove`` / ``load`` / ``reset``) and each completed
  ``check`` is one framed JSON record appended to
  ``<dir>/<token>.journal`` *before* the acknowledgement leaves the
  server.  Framing is ``LLLLLLLL CCCCCCCC <payload>\\n`` — payload byte
  length and CRC32 in fixed-width hex — so a torn tail (the record a
  crash interrupted mid-write) is *detected*, counted, and truncated at
  the last valid record boundary, never silently replayed.
* **Replay on restart.**  Analysis is deterministic and reports are
  canonical, so replaying a journal through a fresh
  :class:`SpecSession` — re-applying the mutations and re-running the
  journaled checks — reproduces byte-identical
  :class:`~repro.service.session.SessionReport`\\ s to the uninterrupted
  run.  The replayed prefix is exactly the acknowledged prefix (plus at
  most one durable-but-unacknowledged record, which rid-based
  deduplication makes safe to retry — see below).
* **Snapshot compaction.**  Unbounded edit histories must not mean
  unbounded journals or unbounded replay: once ``compact_every``
  records have accumulated, the journal is rewritten (write a temporary
  file, fsync, atomic rename) as one ``snapshot`` record holding the
  document as of the last check plus the session's revision.  Replaying
  a snapshot loads the document and re-runs *one* check to rebuild the
  delta-tracking baseline (deterministic, hence identical to the state
  the uninterrupted session carried), so recovery cost is one check
  plus the post-snapshot tail regardless of history length.
  Compaction only happens at check boundaries (no pending edits), which
  keeps the snapshot vocabulary minimal.
* **Exactly-once edits.**  Mutation records carry the client's integer
  ``rid`` when one is present, and the journal tracks the largest
  applied rid.  A client that retries its last edit after a crash (the
  classic append-happened/ack-lost window) is answered
  ``"duplicate": true`` instead of having the edit applied twice — the
  ``attach`` op returns ``last_rid`` so clients can resynchronise.
* **Binding.**  Every serve transport recovers all journals at startup.
  A TCP client binds a session name to a token with ``attach``; stdio
  ``serve`` binds its session ``"default"`` to token ``"default"``, so a
  restarted stdio daemon resumes where the previous one stopped.

**Fsync policy** (the durability/latency trade):  ``"always"`` fsyncs
every append (an acknowledged edit survives power loss), ``"interval:N"``
fsyncs every N appends (a crash may lose the last <N acknowledged
records — the OS page cache still survives *process* death), ``"never"``
only flushes to the OS (fastest; survives process crashes, not kernel
ones).  Snapshots and close are always fsynced.

**Fault points.**  The deterministic fault machinery
(:mod:`repro.service.faults`) reaches into the append path:
``journal_crash`` kills the process *after* the record is durable but
*before* the acknowledgement (the retry/dedupe window), ``journal_torn``
writes half a record and kills the process (the torn-tail window the
CRC framing exists for).

Observability: a ``journal`` metrics namespace (appends, fsyncs,
compactions, replayed records, truncated tails, recovered sessions,
duplicate acks) and ``journal.append`` / ``journal.replay`` spans.
"""

from __future__ import annotations

import json
import os
import re
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..obs.trace import span as _obs_span
from .session import SpecSession

#: Journal file suffix under the store directory.
JOURNAL_SUFFIX = ".journal"

#: ``LLLLLLLL CCCCCCCC `` — 8 hex chars payload length, space, 8 hex
#: chars CRC32, space.  Fixed width so the reader can frame without
#: scanning, and human-greppable so an operator can eyeball a journal.
_HEADER_BYTES = 18

#: Durable session tokens become file names: constrain them hard so a
#: hostile client cannot traverse paths or collide with temp files.
_TOKEN_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: The counter names every store exposes (see :meth:`JournalStore.stats`).
_COUNTER_NAMES = (
    "appends",
    "fsyncs",
    "compactions",
    "replayed_records",
    "truncated_tails",
    "recovered_sessions",
    "duplicates",
)


def validate_token(token: str) -> str:
    """*token* if it is a safe durable-session token, else ``ValueError``."""
    if not _TOKEN_RE.match(token):
        raise ValueError(
            f"invalid session token {token!r}: use 1-64 characters from "
            "[A-Za-z0-9._-], not starting with '.'"
        )
    return token


def frame_record(record: dict) -> bytes:
    """One record as its on-disk bytes: length + CRC32 header, payload,
    newline.  The payload is compact sorted-key JSON, so identical
    records frame to identical bytes."""
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return (
        f"{len(payload):08x} {zlib.crc32(payload) & 0xFFFFFFFF:08x} ".encode("ascii")
        + payload
        + b"\n"
    )


def read_records(data: bytes) -> Tuple[List[dict], int, bool]:
    """Parse framed *data* into ``(records, valid_bytes, torn)``.

    Stops at the first frame that fails any check — short header,
    non-hex header, payload shorter than its declared length, missing
    terminating newline, CRC mismatch, unparsable JSON — and reports
    the byte offset of the last *valid* record boundary, which is where
    a recovering store truncates.  Everything before that boundary is a
    consistent acknowledged-or-in-flight prefix; everything after is a
    torn write and must never be replayed.
    """
    records: List[dict] = []
    offset = 0
    while offset < len(data):
        header = data[offset : offset + _HEADER_BYTES]
        if len(header) < _HEADER_BYTES:
            return records, offset, True
        try:
            if header[8:9] != b" " or header[17:18] != b" ":
                raise ValueError("bad header separators")
            length = int(header[0:8], 16)
            crc = int(header[9:17], 16)
        except ValueError:
            return records, offset, True
        end = offset + _HEADER_BYTES + length
        payload = data[offset + _HEADER_BYTES : end]
        if len(payload) < length or data[end : end + 1] != b"\n":
            return records, offset, True
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return records, offset, True
        try:
            record = json.loads(payload.decode("utf-8"))
        except ValueError:
            return records, offset, True
        if not isinstance(record, dict):
            return records, offset, True
        records.append(record)
        offset = end + 1
    return records, offset, False


@dataclass
class DurableSession:
    """One durable session: the live :class:`SpecSession`, its journal,
    and the resume bookkeeping the ``attach`` handshake returns."""

    token: str
    session: SpecSession
    journal: "SessionJournal"
    #: Largest integer rid a journaled record has carried; the
    #: exactly-once watermark ``attach`` hands back to clients.
    last_rid: Optional[int] = None
    #: Records replayed to rebuild this session (0 for fresh sessions).
    replayed_records: int = 0


class SessionJournal:
    """The append-only record log of one durable session."""

    def __init__(self, store: "JournalStore", token: str) -> None:
        self.store = store
        self.token = token
        self.path = store.directory / f"{token}{JOURNAL_SUFFIX}"
        self._file = open(self.path, "ab")
        self._since_fsync = 0
        #: Records appended since the last snapshot (or creation) — the
        #: compaction trigger compares this against ``compact_every``.
        self.records_since_snapshot = 0

    # ------------------------------------------------------------ writing
    def append(self, record: dict) -> None:
        """Durably append one *record* (write-ahead: callers append
        *before* acknowledging the mutation to the client)."""
        from . import faults

        framed = frame_record(record)
        with _obs_span("journal.append", token=self.token, op=record.get("op")):
            fault = faults.on_journal_append()
            if fault == "torn":
                # The torn-write fault: half a frame reaches the disk,
                # then the process dies.  Recovery must CRC-detect this
                # tail and truncate it — never replay it.
                self._file.write(framed[: max(1, len(framed) // 2)])
                self._file.flush()
                os.fsync(self._file.fileno())
                os._exit(1)
            self._file.write(framed)
            self._file.flush()
            self.store._count("appends")
            self._since_fsync += 1
            if self.store.fsync_every and self._since_fsync >= self.store.fsync_every:
                os.fsync(self._file.fileno())
                self._since_fsync = 0
                self.store._count("fsyncs")
            if fault == "crash":
                # The append-before-ack fault: the record is durable,
                # the acknowledgement never leaves — the window rid
                # deduplication exists for.
                os.fsync(self._file.fileno())
                os._exit(1)
        self.records_since_snapshot += 1

    def sync(self) -> None:
        """Force the journal to disk (drain paths and snapshots)."""
        self._file.flush()
        os.fsync(self._file.fileno())
        self._since_fsync = 0
        self.store._count("fsyncs")

    def should_compact(self) -> bool:
        return (
            self.store.compact_every > 0
            and self.records_since_snapshot >= self.store.compact_every
        )

    def compact(self, session: SpecSession, last_rid: Optional[int]) -> None:
        """Rewrite the journal as one snapshot of *session*.

        Only called at check boundaries (no pending edits), so the
        snapshot is just the document plus the revision counter.  The
        rewrite is crash-consistent: the snapshot goes to a temporary
        file, is fsynced, and atomically renamed over the journal — a
        crash at any point leaves either the old journal or the new
        one, both complete.
        """
        state = session.snapshot_state()
        if state["edited"]:
            raise ValueError("journal compaction requires a checked session")
        record = dict(state)
        record["op"] = "snapshot"
        record["last_rid"] = last_rid
        tmp_path = self.path.with_suffix(".journal.tmp")
        with open(tmp_path, "wb") as tmp:
            tmp.write(frame_record(record))
            tmp.flush()
            os.fsync(tmp.fileno())
        self._file.close()
        os.replace(tmp_path, self.path)
        self._file = open(self.path, "ab")
        self._since_fsync = 0
        self.records_since_snapshot = 0
        self.store._count("compactions")
        self.store._count("fsyncs")

    def close(self) -> None:
        try:
            self.sync()
        except (OSError, ValueError):
            pass
        try:
            self._file.close()
        except OSError:
            pass


class JournalStore:
    """The per-directory registry of durable sessions.

    One store per serving process: the serve entry points create it from
    ``--journal DIR``, recover every journal found in the directory at
    startup, and hand out :class:`DurableSession`\\ s to the ``attach``
    op.  Thread-safe — the serve request core journals mutations from the
    event loop and checks from executor threads (serialized per session
    by the session locks; the store only guards its own maps/counters).
    """

    def __init__(
        self,
        directory,
        fsync: str = "always",
        compact_every: int = 256,
    ) -> None:
        """*fsync* is ``"always"``, ``"never"`` or ``"interval:<n>"``
        (fsync every n appends); *compact_every* bounds journal growth
        (records between snapshot compactions; 0 disables compaction).
        """
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.fsync_every = self.parse_fsync(fsync)
        self.compact_every = int(compact_every)
        self._lock = threading.Lock()
        self._attached: Dict[str, DurableSession] = {}
        self._counters: Dict[str, int] = {name: 0 for name in _COUNTER_NAMES}
        from ..obs.metrics import registry

        registry().register_collector("journal", self.stats)

    @staticmethod
    def parse_fsync(policy: str) -> int:
        """Appends per fsync under *policy* (0: never); ValueError if the
        policy is unknown."""
        if policy == "always":
            return 1
        if policy == "never":
            return 0
        if policy.startswith("interval:"):
            try:
                every = int(policy[len("interval:"):])
            except ValueError:
                every = 0
            if every <= 0:
                raise ValueError(
                    f"fsync interval must be a positive integer: {policy!r}"
                )
            return every
        raise ValueError(
            f"unknown fsync policy {policy!r} "
            "(know 'always', 'never', 'interval:<n>')"
        )

    def _count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    # ----------------------------------------------------------- recovery
    def tokens_on_disk(self) -> Tuple[str, ...]:
        return tuple(
            sorted(
                path.name[: -len(JOURNAL_SUFFIX)]
                for path in self.directory.glob(f"*{JOURNAL_SUFFIX}")
            )
        )

    def _read_and_heal(self, path: Path) -> List[dict]:
        """Read a journal, truncating (and counting) any torn tail."""
        data = path.read_bytes()
        records, valid, torn = read_records(data)
        if torn:
            with open(path, "r+b") as fh:
                fh.truncate(valid)
            self._count("truncated_tails")
        return records

    def _replay(self, token: str, records: List[dict]) -> DurableSession:
        """A fresh :class:`SpecSession` rebuilt from *records*.

        Mutations re-apply, journaled checks re-run (analysis is
        deterministic, so the replayed reports are byte-identical to
        the ones the crashed process acknowledged), snapshots restore
        the document and rebuild the delta baseline with one check.
        """
        tool = self._tool
        session = SpecSession(tool)
        last_rid: Optional[int] = None
        with _obs_span("journal.replay", token=token, records=len(records)):
            for record in records:
                op = record.get("op")
                if op == "snapshot":
                    session = SpecSession(tool)
                    session.restore_snapshot(record)
                    if isinstance(record.get("last_rid"), int):
                        last_rid = record["last_rid"]
                elif op == "add":
                    session.add(str(record["id"]), str(record["text"]))
                elif op == "update":
                    session.update(str(record["id"]), str(record["text"]))
                elif op == "remove":
                    session.remove(str(record["id"]))
                elif op == "load":
                    session.load_document(str(record["document"]))
                elif op == "check":
                    session.check()
                elif op == "reset":
                    session = SpecSession(tool)
                else:
                    raise ValueError(
                        f"journal {token!r} holds unknown record op {op!r}"
                    )
                if isinstance(record.get("rid"), int):
                    last_rid = record["rid"]
        self._count("replayed_records", len(records))
        return DurableSession(
            token=token,
            session=session,
            journal=SessionJournal(self, token),
            last_rid=last_rid,
            replayed_records=len(records),
        )

    def recover(self, tool=None) -> Dict[str, DurableSession]:
        """Replay every journal in the directory; idempotent.

        Returns the full token → :class:`DurableSession` map (already
        attached sessions included, not replayed twice).  *tool* is the
        :class:`~repro.core.pipeline.SpecCC` replayed checks run on —
        the same instance the serving loop uses, so recovered sessions
        share its configuration and caches.
        """
        self._tool = tool
        for token in self.tokens_on_disk():
            with self._lock:
                if token in self._attached:
                    continue
            records = self._read_and_heal(self.directory / f"{token}{JOURNAL_SUFFIX}")
            durable = self._replay(token, records)
            with self._lock:
                self._attached[token] = durable
                self._counters["recovered_sessions"] += 1
        with self._lock:
            return dict(self._attached)

    def attach(self, token: str, tool=None) -> DurableSession:
        """The durable session for *token*: already-attached, recovered
        from disk, or freshly created (empty journal)."""
        validate_token(token)
        self._tool = tool
        with self._lock:
            durable = self._attached.get(token)
        if durable is not None:
            return durable
        path = self.directory / f"{token}{JOURNAL_SUFFIX}"
        if path.exists():
            durable = self._replay(token, self._read_and_heal(path))
            recovered = True
        else:
            durable = DurableSession(
                token=token,
                session=SpecSession(tool),
                journal=SessionJournal(self, token),
            )
            recovered = False
        with self._lock:
            if token in self._attached:  # lost a (rare) attach race
                durable.journal.close()
                return self._attached[token]
            self._attached[token] = durable
            if recovered:
                self._counters["recovered_sessions"] += 1
        return durable

    # -------------------------------------------------------- maintenance
    def record_duplicate(self) -> None:
        """Count one deduplicated (exactly-once) retry acknowledgement."""
        self._count("duplicates")

    def sync_all(self) -> None:
        """Fsync every attached journal (graceful-drain paths)."""
        with self._lock:
            journals = [d.journal for d in self._attached.values()]
        for journal in journals:
            journal.sync()

    def close(self) -> None:
        with self._lock:
            journals = [d.journal for d in self._attached.values()]
            self._attached.clear()
        for journal in journals:
            journal.close()

    # ------------------------------------------------------ observability
    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def stats(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
            attached = len(self._attached)
        return {
            "directory": str(self.directory),
            "fsync": self.fsync_policy,
            "compact_every": self.compact_every,
            "attached_sessions": attached,
            **counters,
        }
