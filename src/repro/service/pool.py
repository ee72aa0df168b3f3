"""Persistent sharded worker pool with warm per-process caches.

``ProcessPoolExecutor`` as PR 2 used it rebuilt the :class:`repro.SpecCC`
tool *per task*, so every document paid the cold-start price — imports,
grammar tables, an empty formula pool, an empty component-outcome LRU —
and the process backend gained nothing over one thread.
:class:`WorkerPool` fixes both halves of that:

* **Persistence** — each shard is one long-lived worker process, spawned
  once with an initializer that constructs the tool and runs
  :meth:`repro.SpecCC.prewarm`.  Interning pools, translation caches and
  the component-outcome LRU stay warm across tasks, so steady-state
  throughput is governed by the caches, not by process startup.
* **Sharding** — tasks are routed by a stable *signature* of the
  document (a content hash: identical text ⇒ identical interned formulas
  ⇒ identical component cache keys, so the signature is a cheap proxy
  for affinity hashing over those keys).  A repeated document or
  component therefore lands on the worker that already analysed it and
  is served from that worker's LRU instead of recomputing in a cold
  sibling.
* **Supervision** — every task is dispatched through a
  :class:`~repro.service.supervision.Supervisor`: worker death
  (``BrokenProcessPool``), hangs (per-task watchdog timeout) and
  mid-pipeline exceptions are retried with deterministic backoff, the
  dead shard is respawned through the same initializer+prewarm, and when
  respawn itself keeps failing a circuit breaker degrades the pool to an
  in-process sequential path.  A document whose pipeline raises
  deterministically resolves to an *error record*
  (:func:`~repro.service.reportjson.error_to_dict`) instead of aborting
  its siblings: :meth:`submit` futures never raise for per-document
  failures.  Fault schedules for testing all of this ride in through
  :class:`~repro.service.faults.FaultPlan` (or the ``REPRO_FAULTS``
  environment variable) and are installed inside each worker by the
  initializer.

Dispatch is serialized per shard by a dedicated dispatcher thread (each
shard has exactly one worker process, so this costs no throughput): the
supervisor observes one in-flight task per shard, which makes recovery
counters exact — a scheduled crash is exactly one ``worker_death``, one
``restart``, one ``retry`` — and lets tests assert them as equalities.

Determinism is unchanged from the thread backend: workers run the
ordinary pipeline, caches are semantically transparent, and canonical
reports (``timings=False``) are byte-identical to a ``workers=1`` run no
matter how many shards route the traffic — and no matter which faults
fire, because retried and degraded tasks run the same pipeline over
semantically transparent caches.  Asserted byte-for-byte in
``tests/test_pool.py``.

Observability: every task ships a per-task component-cache hit/miss
delta back with its report (see
:func:`repro.synthesis.realizability.cache_snapshot` — plain picklable
dicts), and the parent aggregates them with shard-routing counters and
the supervisor's recovery counters in :meth:`WorkerPool.stats`;
:meth:`WorkerPool.worker_snapshots` fetches each worker's full cache
snapshot on demand.

``backend="process"`` of :class:`~repro.service.batch.BatchChecker` and
the serve daemon's ``batch`` op, on stdio and over the TCP gateway, both
draw their pool from the module-level :func:`shared_pool` registry, so
one set of warm local worker processes serves every batch request in the
process.
"""

from __future__ import annotations

import atexit
import hashlib
import pickle
import queue
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..core.pipeline import SpecCC, SpecCCConfig
from ..obs.trace import (
    Tracer,
    activated,
    get_tracer,
    span as _obs_span,
    tracing_active,
)
from .faults import FaultPlan
from .supervision import Supervisor, SupervisionConfig, WorkerUnavailable

#: Mirrors :data:`repro.service.batch.Document` (no import: batch.py
#: imports this module).
Document = Union[str, Sequence[Tuple[str, str]]]

#: Bound on the signature→shard bookkeeping map (counters only — routing
#: itself is stateless hashing and never forgets).
_SIGNATURE_MAP_LIMIT = 65536


def document_signature(document: Document) -> str:
    """Stable content signature of a document (any accepted shape).

    Identical content yields identical interned formulas and therefore
    identical component cache keys, so routing by this signature is
    affinity hashing over the component cache without translating in the
    parent.  Stable across processes and runs (``PYTHONHASHSEED``-free).
    """
    if isinstance(document, str):
        payload = "text\x00" + document
    else:
        payload = "pairs\x00" + "\x00".join(
            f"{identifier}\x1f{sentence}" for identifier, sentence in document
        )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


class PoolTask(NamedTuple):
    """One completed pool task: canonical report plus attribution.

    *error* is None for ordinary results; for a document whose pipeline
    failed on every supervised attempt it holds the error message and
    *data* holds the shared error-record shape
    (:func:`~repro.service.reportjson.error_to_dict`).  *attempts* counts
    supervised tries (1 = first try succeeded).
    """

    name: str
    data: dict  # canonical report (reportjson, timings excluded)
    shard: int
    cache_hits: int  # component-outcome hits inside the worker, this task
    cache_misses: int
    error: Optional[str] = None
    attempts: int = 1
    #: Span records the worker recorded for this task (empty unless the
    #: submitting context was tracing) — already stitched into the
    #: parent's trace by the dispatcher, surfaced here for inspection.
    spans: Tuple = ()


# ---------------------------------------------------------------- workers
# One tool per worker process, built exactly once by the initializer and
# reused for every task the shard ever receives — this is the whole point.
_WORKER_TOOL: Optional[SpecCC] = None


def _worker_init(
    setup: tuple,
    prewarm: bool,
    shard: int = 0,
    spawn: int = 0,
    fault_plan: Optional[FaultPlan] = None,
) -> None:
    global _WORKER_TOOL
    from . import faults

    # Arm (or, under fork, explicitly disarm inherited) fault injection
    # before anything else: crash_init faults fire here, and the pipeline
    # hook must be in place before prewarm exercises the pipeline.
    faults.install(fault_plan, shard=shard, spawn=spawn)
    config, dictionary, signs = setup
    _WORKER_TOOL = SpecCC(config, dictionary=dictionary, signs=signs)
    if prewarm:
        _WORKER_TOOL.prewarm()


def _counter_snapshot() -> Dict[str, int]:
    """The per-task attribution counters: component-cache hits/misses."""
    from ..synthesis.realizability import component_cache_info

    info = component_cache_info()
    return {"hits": info.hits, "misses": info.misses}


def _worker_check(item: Tuple) -> Tuple[dict, Dict[str, int]]:
    """Check one document on the resident tool; report + hit/miss deltas.

    *item* is ``(name, document)``, optionally extended with a trace flag
    (appended by :meth:`WorkerPool._dispatch` when the submitting context
    is tracing): the task then runs under a per-task tracer and its span
    records ride back in the delta dict under ``"spans"`` — the same pipe
    the cache-attribution deltas already use, so the result shape the
    supervisor sees is unchanged.
    """
    from . import faults
    from .batch import _check_document
    from .reportjson import report_to_dict

    tool = _WORKER_TOOL
    if tool is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("worker process was not initialized")
    faults.on_task_start()  # crash/delay faults scheduled for this task
    trace = len(item) > 2 and bool(item[2])
    tracer = Tracer(name=f"task.{item[0]}") if trace else None
    before = _counter_snapshot()
    with activated(tracer):
        with _obs_span("worker.check", task=str(item[0])):
            report = _check_document(tool, item[1])
    after = _counter_snapshot()
    delta: Dict[str, object] = {key: after[key] - before[key] for key in after}
    if tracer is not None:
        delta["spans"] = tracer.drain()
    return report_to_dict(report, timings=False), delta


def _worker_snapshot(_: object = None) -> dict:
    from ..synthesis.realizability import cache_snapshot

    return cache_snapshot()


def _terminate_executor(executor: ProcessPoolExecutor) -> None:
    """Hard-stop an executor whose (single) worker is dead or hung."""
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 - already dead is fine
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001 - broken executors may complain
        pass


# ------------------------------------------------------------------- pool
class WorkerPool:
    """Long-lived sharded process pool for document checking.

    Each of the *shards* workers is a separate single-process executor,
    which is what makes the affinity guarantee hold: a task routed to
    shard *k* always runs in shard *k*'s (one) process, over that
    process's warm caches.  Use as a context manager or call
    :meth:`shutdown`; pools obtained from :func:`shared_pool` are shut
    down at interpreter exit.

    *supervision* tunes recovery (retries, backoff, watchdog timeout,
    circuit breaker — see :class:`~repro.service.supervision.
    SupervisionConfig`); *fault_plan* installs a deterministic fault
    schedule in the workers (defaults to the plan named by the
    ``REPRO_FAULTS`` environment variable; pass ``FaultPlan()`` to force
    no injection regardless of the environment).
    """

    def __init__(
        self,
        config: SpecCCConfig = SpecCCConfig(),
        shards: int = 4,
        prewarm: bool = True,
        tool: Optional[SpecCC] = None,
        supervision: Optional[SupervisionConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        """*tool* overrides *config* (mirrors ``BatchChecker``): the
        worker tools are rebuilt from its config, antonym dictionary and
        signs, so pool verdicts match the supplying session's."""
        if shards < 1:
            raise ValueError("shards must be >= 1")
        template = tool if tool is not None else SpecCC(config)
        self.config = template.config
        self.shards = shards
        self.prewarm = prewarm
        self._setup = (
            self.config,
            template.translator.dictionary,
            template.translator.signs,
        )
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        self.fault_plan = fault_plan if fault_plan else None
        if supervision is None:
            supervision = SupervisionConfig(
                seed=self.fault_plan.seed if self.fault_plan else 0
            )
        self.supervision = supervision
        self._supervisor = Supervisor(self, supervision)
        self._executors: List[Optional[ProcessPoolExecutor]] = [None] * shards
        self._spawns = [0] * shards  # spawn generation per shard
        self._queues: List["queue.Queue"] = [queue.Queue() for _ in range(shards)]
        self._dispatchers: List[Optional[threading.Thread]] = [None] * shards
        self._inline_tool: Optional[SpecCC] = None
        self._lock = threading.Lock()
        self._closed = False
        self._startup_seconds: Optional[float] = None
        # Counters (all guarded by _lock; dispatcher threads update them).
        self._tasks = 0
        self._failures = 0
        self._per_shard = [0] * shards
        self._worker_hits = 0
        self._worker_misses = 0
        self._routed: "Dict[str, int]" = {}  # signature -> shard (bounded)
        self._affinity_repeats = 0

    # ---------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def _make_executor(self, shard: int, spawn: int) -> ProcessPoolExecutor:
        """Spawn + fully initialize one shard's executor (may raise —
        e.g. a scheduled ``crash_init`` fault kills the initializer)."""
        executor = ProcessPoolExecutor(
            max_workers=1,
            initializer=_worker_init,
            initargs=(self._setup, self.prewarm, shard, spawn, self.fault_plan),
        )
        try:
            # Force the spawn + initializer to actually complete.
            executor.submit(_worker_snapshot).result()
        except BaseException:
            _terminate_executor(executor)
            raise
        return executor

    def ensure_started(self) -> float:
        """Spawn and initialize every worker; returns the startup seconds.

        Idempotent.  Separated from construction so benchmarks can
        charge pool startup to its own line instead of silently folding
        it into the first batch's throughput.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is shut down")
            if self._startup_seconds is not None:
                return self._startup_seconds
            start = time.perf_counter()
            for shard in range(self.shards):
                self._executors[shard] = self._make_executor(
                    shard, self._spawns[shard]
                )
                dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    args=(shard,),
                    name=f"pool-shard-{shard}",
                    daemon=True,
                )
                self._dispatchers[shard] = dispatcher
                dispatcher.start()
            self._startup_seconds = time.perf_counter() - start
            return self._startup_seconds

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dispatchers = [d for d in self._dispatchers if d is not None]
            executors = [e for e in self._executors if e is not None]
            self._executors = [None] * self.shards
            self._dispatchers = [None] * self.shards
            # Sentinels queue *behind* submitted work (puts are ordered by
            # this lock), so wait=True drains in-flight tasks on live
            # executors before they are torn down.
            for q in self._queues:
                q.put(None)
        if wait:
            for dispatcher in dispatchers:
                dispatcher.join()
        for executor in executors:
            try:
                executor.shutdown(wait=wait)
            except Exception:  # noqa: BLE001 - broken executors may complain
                pass

    def __enter__(self) -> "WorkerPool":
        self.ensure_started()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------ routing
    def shard_of(self, document: Document) -> int:
        """The shard *document* routes to (pure function of its content)."""
        return int(document_signature(document), 16) % self.shards

    def _route(self, document: Document) -> int:
        signature = document_signature(document)
        shard = int(signature, 16) % self.shards
        with self._lock:
            if signature in self._routed:
                self._affinity_repeats += 1
            else:
                if len(self._routed) >= _SIGNATURE_MAP_LIMIT:
                    self._routed.clear()  # counters only; routing unaffected
                self._routed[signature] = shard
            self._tasks += 1
            self._per_shard[shard] += 1
        return shard

    # --------------------------------------------------- supervisor hooks
    # The Supervisor drives these three; it owns retry/respawn/degrade
    # policy, the pool owns the mechanics.
    def _dispatch(self, shard: int, item: Tuple[str, Document]) -> Future:
        if tracing_active():
            # Ask the worker to trace this task; its spans come back in
            # the delta dict and are stitched in by the dispatcher.
            item = item + (True,)
        with self._lock:
            executor = self._executors[shard]
        if executor is None:
            raise WorkerUnavailable(f"shard {shard} has no live worker")
        return executor.submit(_worker_check, item)

    def _respawn_shard(self, shard: int) -> None:
        """Terminate shard *shard*'s worker and bring up a replacement
        through the ordinary initializer (+prewarm).  Raises when the
        replacement fails to come up (the supervisor counts that and may
        trip the circuit breaker)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is shut down")
            old = self._executors[shard]
            self._executors[shard] = None
            self._spawns[shard] += 1
            spawn = self._spawns[shard]
        if old is not None:
            _terminate_executor(old)
        executor = self._make_executor(shard, spawn)
        with self._lock:
            if self._closed:
                executor.shutdown(wait=False)
                raise RuntimeError("pool is shut down")
            self._executors[shard] = executor

    def _inline_check(
        self, item: Tuple[str, Document]
    ) -> Tuple[dict, Dict[str, int]]:
        """The degraded fallback: run the task in *this* process, on a
        lazily built tool with the pool's exact setup.  Same pipeline,
        same canonical bytes — just no process isolation."""
        from .batch import _check_document
        from .reportjson import report_to_dict

        with self._lock:
            tool = self._inline_tool
            if tool is None:
                config, dictionary, signs = self._setup
                tool = SpecCC(config, dictionary=dictionary, signs=signs)
                self._inline_tool = tool
        before = _counter_snapshot()
        report = _check_document(tool, item[1])
        after = _counter_snapshot()
        return (
            report_to_dict(report, timings=False),
            {key: after[key] - before[key] for key in after},
        )

    # --------------------------------------------------------- dispatching
    def _dispatch_loop(self, shard: int) -> None:
        """Dispatcher thread: feed shard *shard* one supervised task at a
        time.  Serial per shard (the shard has one worker process anyway)
        — this is what makes recovery counters exact."""
        work = self._queues[shard]
        while True:
            entry = work.get()
            if entry is None:
                work.task_done()
                break
            name, document, outer, tracer = entry
            try:
                # Re-establish the submitter's tracer in this thread
                # (context variables do not cross thread boundaries), so
                # dispatch/retry/respawn spans land in the right trace.
                with activated(tracer):
                    with _obs_span("pool.task", task=name, shard=shard) as sp:
                        data, delta, error, attempts = self._supervisor.run_task(
                            shard, name, document
                        )
                        sp.set(attempts=attempts, failed=error is not None)
                    spans = (
                        delta.pop("spans", ()) if isinstance(delta, dict) else ()
                    )
                    if tracer is not None and spans:
                        # Stitch the worker's spans under this dispatch
                        # span: re-IDed, re-parented, shifted to the
                        # dispatch window, one track per shard.
                        tracer.adopt(
                            spans,
                            parent=sp,
                            tid=f"shard{shard}",
                            offset_us=sp.ts,
                        )
            except BaseException as failure:  # pragma: no cover - safety net
                with self._lock:
                    self._failures += 1
                outer.set_exception(failure)
                work.task_done()
                continue
            with self._lock:
                if error is not None:
                    self._failures += 1
                self._worker_hits += delta.get("hits", 0)
                self._worker_misses += delta.get("misses", 0)
            outer.set_result(
                PoolTask(
                    name,
                    data,
                    shard,
                    delta.get("hits", 0),
                    delta.get("misses", 0),
                    error,
                    attempts,
                    tuple(spans),
                )
            )
            work.task_done()

    def submit(self, name: str, document: Document) -> "Future[PoolTask]":
        """Route one document to its shard; resolves to a :class:`PoolTask`.

        The future *always* resolves — worker death, hangs and pipeline
        errors are absorbed by the supervisor; a document that fails on
        every attempt resolves to a :class:`PoolTask` carrying an error
        record (``task.error is not None``) rather than raising.
        """
        self.ensure_started()
        shard = self._route(document)
        outer: "Future[PoolTask]" = Future()
        # Capture the submitter's tracer here: the dispatcher thread
        # re-activates it around the supervised run, which is what lets a
        # request's context tracer span worker-pool dispatch.
        tracer = get_tracer()
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is shut down")
            self._queues[shard].put((name, document, outer, tracer))
        return outer

    def check_documents(
        self, documents: Sequence[Tuple[str, Document]]
    ) -> List[PoolTask]:
        """Check ``(name, document)`` items; results come back in order."""
        futures = [self.submit(name, document) for name, document in documents]
        return [future.result() for future in futures]

    # ------------------------------------------------------- observability
    def worker_snapshots(self) -> List[dict]:
        """Each shard's full cache snapshot (one round-trip per worker).

        A shard with no live worker (mid-respawn, or abandoned behind an
        open circuit breaker) reports ``{"unavailable": True}`` instead
        of failing the whole call.
        """
        self.ensure_started()
        with self._lock:
            executors = list(self._executors)
        snapshots: List[dict] = []
        for executor in executors:
            if executor is None:
                snapshots.append({"unavailable": True})
                continue
            try:
                snapshots.append(executor.submit(_worker_snapshot).result())
            except Exception:  # noqa: BLE001 - worker died under us
                snapshots.append({"unavailable": True})
        return snapshots

    def stats(self) -> dict:
        """Shard-routing and worker cache counters, ``cache_stats()``-style.

        ``worker_cache`` aggregates the per-task hit/miss deltas the
        workers shipped back; ``affinity_repeats`` counts submissions
        whose signature had been routed before (each one is a task that
        landed on warm state by construction).  ``supervision`` carries
        the recovery counters (restarts, retries, timeouts, degraded
        tasks, circuit state — see :meth:`~repro.service.supervision.
        Supervisor.stats`); ``spawns`` is each shard's spawn generation
        (0 = never respawned).  ``failures`` counts documents that
        resolved to error records.
        """
        supervision = self._supervisor.stats()
        with self._lock:
            hits, misses = self._worker_hits, self._worker_misses
            total = hits + misses
            return {
                "shards": self.shards,
                "started": self._startup_seconds is not None,
                "startup_seconds": self._startup_seconds,
                "tasks": self._tasks,
                "failures": self._failures,
                "per_shard": list(self._per_shard),
                "spawns": list(self._spawns),
                "distinct_signatures": len(self._routed),
                "affinity_repeats": self._affinity_repeats,
                "supervision": supervision,
                "worker_cache": {
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": round(hits / total, 4) if total else None,
                },
            }


# --------------------------------------------------------- shared registry
# One pool per (tool setup, shard count) per process: BatchChecker's
# process backend and the serve daemon's batch op both call shared_pool(),
# so every batch request in a daemon reuses the same warm workers.
_shared_pools: Dict[Tuple[bytes, int], WorkerPool] = {}
_shared_lock = threading.Lock()


def _setup_key(tool: SpecCC) -> bytes:
    """Canonical bytes identifying a tool's worker-relevant setup."""
    dictionary = tool.translator.dictionary
    canonical = (
        tool.config,
        tuple(
            (word, tuple(sorted(antonyms)))
            for word, antonyms in sorted(dictionary.pairs.items())
        ),
        tuple(sorted(dictionary.positive_forms)),
        tuple(tool.translator.signs) if tool.translator.signs is not None else None,
    )
    return pickle.dumps(canonical)


def shared_pool(
    tool: Optional[SpecCC] = None,
    config: SpecCCConfig = SpecCCConfig(),
    shards: int = 4,
    prewarm: bool = True,
    supervision: Optional[SupervisionConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> WorkerPool:
    """The process-wide pool for this tool setup, created on first use.

    Registry mutation is serialized under one lock, so concurrent
    callers with the same setup get the *same* pool.  A registered pool
    that has been shut down (tests, supervisors, operators) is replaced
    with a fresh one rather than handed out dead.  *supervision* and
    *fault_plan* apply only when this call creates the pool.
    """
    template = tool if tool is not None else SpecCC(config)
    key = (_setup_key(template), shards)
    with _shared_lock:
        pool = _shared_pools.get(key)
        if pool is None or pool.closed:
            pool = WorkerPool(
                shards=shards,
                prewarm=prewarm,
                tool=template,
                supervision=supervision,
                fault_plan=fault_plan,
            )
            _shared_pools[key] = pool
        return pool


def shared_pool_stats() -> List[dict]:
    """`stats()` of every registry pool (the serve ``stats`` op surfaces
    these so operators can watch shard routing and worker hit rates)."""
    with _shared_lock:
        pools = list(_shared_pools.values())
    return [pool.stats() for pool in pools]


def shutdown_shared_pools(wait: bool = True) -> None:
    """Shut down every registry pool (tests; also runs at exit).

    Tolerant by design: a pool already shut down — or half torn down by
    a dying interpreter — must not turn interpreter exit into a
    traceback.
    """
    with _shared_lock:
        pools = list(_shared_pools.values())
        _shared_pools.clear()
    for pool in pools:
        try:
            pool.shutdown(wait=wait)
        except Exception:  # noqa: BLE001 - exit path must not raise
            pass


def _shutdown_at_exit() -> None:  # pragma: no cover - interpreter teardown
    shutdown_shared_pools(wait=False)


atexit.register(_shutdown_at_exit)
