"""The service layer: SpecCC as a long-lived process.

The paper frames consistency checking as *maintenance* (Figure 1):
engineers edit specifications continuously and re-check after every
change.  The one-shot :class:`repro.SpecCC` façade redoes everything per
call; this package holds the stateful subsystem that exploits the
hash-consed core and the process-wide component/automaton caches:

* :class:`SpecSession` — an editable document session whose ``check``
  re-translates only edited sentences and re-analyses only the
  variable-connected components an edit dirtied.
* :class:`BatchChecker` — checking many documents, in this process (one
  after another) or on the worker pool, with byte-identical reports
  across backends.
* :class:`WorkerPool` — the persistent sharded process pool behind
  ``backend="process"``: workers spawned once, per-process caches warm
  across tasks, documents routed by content signature to the shard that
  already analysed them.
* :class:`AsyncSpecServer` — the one request core of the JSON-lines
  serve protocol, multiplexing many concurrent client sessions; one
  request loop (:class:`~repro.service.server.RequestStream`) drives it
  from every transport.  :func:`serve` runs the loop over stdio
  (``python -m repro serve``).
* :class:`SpecGateway` / :func:`serve_tcp` — the same loop over TCP
  (``python -m repro serve --tcp HOST:PORT``): per-connection session
  namespacing, token-bucket rate limiting, connection caps, graceful
  drain — see :mod:`~repro.service.gateway`.  Its ``batch`` requests
  run on the gateway's local :class:`WorkerPool`.
* :mod:`~repro.service.supervision` / :mod:`~repro.service.faults` — the
  fault-tolerance layer: pool dispatch is supervised (retry, respawn,
  watchdog timeout, circuit-breaker degradation to an in-process path),
  and every failure mode is reproducible on schedule through a seeded
  :class:`FaultPlan` (or the ``REPRO_FAULTS`` environment variable).
* :class:`JournalStore` / :mod:`~repro.service.journal` — durable
  sessions for both serve transports (``--journal DIR``): per-session
  write-ahead journals with CRC-framed records, snapshot compaction,
  crash-consistent replay to byte-identical reports, and the ``attach``
  op for reconnect-and-resume with exactly-once edit application.

All of them speak the one machine-readable report format in
:mod:`repro.service.reportjson`, shared with ``python -m repro check
--json``.
"""

from .batch import BatchChecker, BatchResult
from .faults import FaultInjected, FaultPlan, FaultSpec
from .gateway import SpecGateway, TokenBucket, serve_tcp
from .journal import DurableSession, JournalStore, SessionJournal
from .pool import WorkerPool, document_signature, shared_pool, shutdown_shared_pools
from .reportjson import error_to_dict, report_to_dict
from .session import SessionDelta, SessionReport, SpecSession
from .server import AsyncSpecServer, ServiceError, serve
from .supervision import SupervisionConfig

__all__ = [
    "AsyncSpecServer",
    "BatchChecker",
    "BatchResult",
    "DurableSession",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "JournalStore",
    "ServiceError",
    "SessionDelta",
    "SessionJournal",
    "SessionReport",
    "SpecGateway",
    "SpecSession",
    "SupervisionConfig",
    "TokenBucket",
    "WorkerPool",
    "document_signature",
    "error_to_dict",
    "report_to_dict",
    "serve",
    "serve_tcp",
    "shared_pool",
    "shutdown_shared_pools",
]
