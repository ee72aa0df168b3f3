"""Supervision of worker-pool task dispatch: retry, respawn, degrade.

Before this layer, one crashed shard surfaced as ``BrokenProcessPool``
on every in-flight future and a single hung worker stalled a batch
forever.  The :class:`Supervisor` sits between the
:class:`~repro.service.pool.WorkerPool`'s per-shard dispatchers and its
executors and guarantees *a result for every task*, in strictly
weakening order of preference:

1. **Retry on the worker** — a task that raised inside the worker
   (deterministic document errors, injected ``raise`` faults) is retried
   up to ``max_attempts`` times with exponential backoff and
   deterministic seeded jitter.
2. **Respawn and retry** — worker death (any ``BrokenExecutor``, i.e.
   ``BrokenProcessPool``) or a per-task wall-clock timeout (a hung
   worker, observed by the watchdog ``future.result(timeout=...)``)
   respawns the shard's worker, then retries.  Respawn means terminate
   the shard's process and re-initialize a fresh one through the pool's
   ordinary initializer (+prewarm).
3. **Degrade in-process** — when attempts are exhausted, or respawn
   itself keeps failing (circuit breaker: :data:`MAX_RESPAWN_FAILURES`
   consecutive failures), the task runs on the parent's own sequential
   tool (``BatchChecker(backend="thread")`` semantics).  Results are
   still produced and still byte-identical — the inline path is the same
   pipeline over the same semantically transparent caches — but the
   degradation is logged and counted, never silent.
4. **Error record** — a task that fails deterministically on every
   attempt resolves to the shared error-record shape
   (:func:`repro.service.reportjson.error_to_dict`) instead of raising,
   so one malformed document can never abort its siblings.

Everything the supervisor does is observable through :meth:`stats`
(threaded into ``pool.stats()["supervision"]``, the serve ``stats`` and
``ping`` ops and ``check --stats``), and every decision is deterministic
given the fault schedule: backoff jitter is seeded, the circuit breaker
is a pure function of consecutive respawn failures, and per-shard
dispatch is serialized by the pool, so tests assert *exact* counter
values (``tests/test_pool.py``).
"""

from __future__ import annotations

import logging
import random
import threading
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ..obs.trace import span as _obs_span

logger = logging.getLogger("repro.service.supervision")

#: The per-task cache-attribution delta for tasks that never ran on a
#: worker (error records; degraded tasks compute a real one instead).
ZERO_DELTA = {"hits": 0, "misses": 0}

#: Exponential backoff between retries, in seconds:
#: ``BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1)``, capped at
#: ``BACKOFF_CAP``, plus deterministic jitter in ``[0, JITTER] * delay``.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 2.0
JITTER = 0.25
#: Circuit breaker: this many *consecutive* respawn failures degrade the
#: whole pool to the in-process path.
MAX_RESPAWN_FAILURES = 3


class WorkerUnavailable(RuntimeError):
    """Dispatch target has no live executor (died and not yet respawned)."""


@dataclass(frozen=True)
class SupervisionConfig:
    """The supervision settings a caller chooses, in one picklable place."""

    #: Total tries per task (first attempt included).
    max_attempts: int = 3
    #: Seeds the jitter stream; same seed + same retry sequence = same
    #: delays (the fault plan's seed is the conventional source).
    seed: int = 0
    #: Per-attempt wall-clock timeout (seconds); None disables the
    #: watchdog.  On expiry the worker is presumed hung and respawned.
    task_timeout: Optional[float] = None


def backoff_delay(config: SupervisionConfig, key: str, attempt: int) -> float:
    """Deterministic backoff before retry *attempt* (>= 1) of task *key*."""
    base = min(BACKOFF_CAP, BACKOFF_BASE * BACKOFF_FACTOR ** max(0, attempt - 1))
    rng = random.Random(f"{config.seed}\x00{key}\x00{attempt}")
    return base * (1.0 + JITTER * rng.random())


class Supervisor:
    """Drives one pool's task dispatch through the retry/respawn ladder.

    *pool* provides the mechanics (duck-typed, so this module never
    imports :mod:`~repro.service.pool`):

    * ``_dispatch(shard, item) -> Future`` — submit to the shard's live
      executor, raising :class:`WorkerUnavailable` when there is none;
    * ``_respawn_shard(shard)`` — terminate the shard's worker process
      and re-initialize a fresh one, raising on failure;
    * ``_inline_check(item) -> (data, delta)`` — the sequential
      in-process fallback over the same tool setup.

    The pool serializes calls per shard (one dispatcher thread each), so
    per-shard counter sequences are deterministic.
    """

    def __init__(self, pool, config: SupervisionConfig = SupervisionConfig()) -> None:
        self.pool = pool
        self.config = config
        self._lock = threading.Lock()
        self._circuit_open = False
        self._consecutive_respawn_failures = 0
        # Counters (guarded by _lock; read by stats()).
        self.attempts = 0
        self.retries = 0
        self.restarts = 0
        self.timeouts = 0
        self.worker_deaths = 0
        self.task_errors = 0
        self.respawn_failures = 0
        self.degraded_tasks = 0
        self.error_records = 0

    # ------------------------------------------------------------- running
    @property
    def circuit_open(self) -> bool:
        with self._lock:
            return self._circuit_open

    def run_task(
        self, shard: int, name: str, document
    ) -> Tuple[dict, dict, Optional[str], int]:
        """Produce ``(data, delta, error, attempts)`` for one task, always."""
        config = self.config
        attempt = 0
        while True:
            if self.circuit_open:
                return self._run_degraded(shard, name, document, attempt)
            attempt += 1
            with self._lock:
                self.attempts += 1
            try:
                future = self.pool._dispatch(shard, (name, document))
            except WorkerUnavailable:
                healthy = self._respawn(shard, reason="no live worker")
                if not healthy or attempt >= config.max_attempts:
                    return self._run_degraded(shard, name, document, attempt)
                self._note_retry(name, attempt)
                continue
            try:
                data, delta = future.result(timeout=config.task_timeout)
            except FuturesTimeoutError:
                with self._lock:
                    self.timeouts += 1
                logger.warning(
                    "task %r on shard %d exceeded %.3fs; respawning worker",
                    name, shard, config.task_timeout,
                )
                healthy = self._respawn(shard, reason="task timeout")
            except BrokenExecutor as error:
                with self._lock:
                    self.worker_deaths += 1
                logger.warning(
                    "worker for shard %d died during task %r (%s); respawning",
                    shard, name, error,
                )
                healthy = self._respawn(shard, reason="worker death")
            except Exception as error:  # noqa: BLE001 - the task itself raised
                with self._lock:
                    self.task_errors += 1
                if attempt >= config.max_attempts:
                    return self._error_record(name, error, attempt)
                self._note_retry(name, attempt)
                continue
            else:
                with self._lock:
                    self._consecutive_respawn_failures = 0
                return data, delta, None, attempt
            # Worker death / timeout path: retry on the respawned worker.
            if not healthy or attempt >= config.max_attempts:
                return self._run_degraded(shard, name, document, attempt)
            self._note_retry(name, attempt)

    # ----------------------------------------------------------- internals
    def _note_retry(self, name: str, attempt: int) -> None:
        with self._lock:
            self.retries += 1
        delay = backoff_delay(self.config, name, attempt)
        with _obs_span("pool.backoff", task=name, attempt=attempt, seconds=delay):
            time.sleep(delay)

    def _respawn(self, shard: int, reason: str) -> bool:
        try:
            with _obs_span("pool.respawn", shard=shard, reason=reason):
                self.pool._respawn_shard(shard)
        except Exception as error:  # noqa: BLE001 - counted + degraded
            with self._lock:
                self.respawn_failures += 1
                self._consecutive_respawn_failures += 1
                tripped = (
                    not self._circuit_open
                    and self._consecutive_respawn_failures >= MAX_RESPAWN_FAILURES
                )
                if tripped:
                    self._circuit_open = True
            logger.error(
                "respawn of shard %d failed after %s (%s)", shard, reason, error
            )
            if tripped:
                logger.error(
                    "circuit breaker open after %d consecutive respawn "
                    "failures: pool degrades to the in-process path",
                    MAX_RESPAWN_FAILURES,
                )
            return False
        with self._lock:
            self.restarts += 1
            self._consecutive_respawn_failures = 0
        logger.info("respawned worker for shard %d after %s", shard, reason)
        return True

    def _run_degraded(
        self, shard: int, name: str, document, attempts: int
    ) -> Tuple[dict, dict, Optional[str], int]:
        try:
            with _obs_span("pool.degraded", task=name, shard=shard):
                data, delta = self.pool._inline_check((name, document))
        except Exception as error:  # noqa: BLE001 - document itself is broken
            return self._error_record(name, error, attempts)
        with self._lock:
            self.degraded_tasks += 1
        logger.warning(
            "task %r served by the degraded in-process path (shard %d)",
            name, shard,
        )
        return data, delta, None, attempts

    def _error_record(
        self, name: str, error: BaseException, attempts: int
    ) -> Tuple[dict, dict, Optional[str], int]:
        from .reportjson import error_to_dict

        with self._lock:
            self.error_records += 1
        logger.warning(
            "task %r failed on every attempt (%d): %s", name, attempts, error
        )
        return error_to_dict(error), dict(ZERO_DELTA), str(error), attempts

    # ------------------------------------------------------- observability
    def stats(self) -> dict:
        """Plain-data counters; ``degraded`` is the headline gauge."""
        with self._lock:
            return {
                "attempts": self.attempts,
                "retries": self.retries,
                "restarts": self.restarts,
                "timeouts": self.timeouts,
                "worker_deaths": self.worker_deaths,
                "task_errors": self.task_errors,
                "respawn_failures": self.respawn_failures,
                "degraded_tasks": self.degraded_tasks,
                "error_records": self.error_records,
                "circuit_open": self._circuit_open,
                "degraded": self._circuit_open or self.degraded_tasks > 0,
            }


def aggregate_stats(rows: Iterable[dict]) -> dict:
    """Sum the supervision counters of many ``pool.stats()`` rows.

    The serve ``ping``/``health`` op reports one fleet-level summary
    instead of a per-pool list; booleans aggregate by ``any``.
    """
    keys = (
        "attempts",
        "retries",
        "restarts",
        "timeouts",
        "worker_deaths",
        "task_errors",
        "respawn_failures",
        "degraded_tasks",
        "error_records",
    )
    total = {key: 0 for key in keys}
    degraded = False
    circuit_open = False
    for row in rows:
        supervision = row.get("supervision") if isinstance(row, dict) else None
        if not supervision:
            continue
        for key in keys:
            total[key] += int(supervision.get(key, 0))
        degraded = degraded or bool(supervision.get("degraded"))
        circuit_open = circuit_open or bool(supervision.get("circuit_open"))
    total["degraded"] = degraded
    total["circuit_open"] = circuit_open
    return total
