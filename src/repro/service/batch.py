"""Checking many documents: in this process, on worker processes, or on
remote workers.

:class:`BatchChecker` takes ``(name, document)`` items and returns one
canonical report dictionary (``report_to_dict(report, timings=False)``)
per document, in input order.  The three backends run the same
per-document pipeline over semantically transparent caches, so their
reports are byte-identical (``tests/test_service.py`` and
``tests/test_pool.py`` assert it), and a document whose pipeline raises
yields the shared error record
(:func:`~repro.service.reportjson.error_to_dict`) while its siblings are
still checked.

* ``backend="thread"`` runs the paper's maintenance loop (Figure 1) once
  per document, in order, on the calling thread, over the process-wide
  caches; *workers* is ignored.  It is sequential on purpose: pure-Python
  analysis holds the GIL, and spreading a batch over 4 threads checked
  the 22 Table I documents about 3x slower than this loop.
* ``backend="process"`` dispatches documents onto the persistent sharded
  :class:`~repro.service.pool.WorkerPool`: workers are spawned once, keep
  their caches warm across tasks, and repeated documents route to the
  shard that already analysed them.
* ``backend="remote"`` dispatches the same tasks to ``python -m repro
  worker`` processes registered with a
  :class:`~repro.service.remote.RemoteWorkerHub`, behind the same
  pool/supervision seam.  Pool workers return canonical report
  dictionaries: interned formulas must not cross process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..core.pipeline import ConsistencyReport, SpecCC, SpecCCConfig
from ..obs.trace import span as _obs_span
from .faults import FaultPlan
from .pool import WorkerPool, shared_pool
from .reportjson import error_to_dict, report_to_dict
from .supervision import SupervisionConfig

#: A work item: a name plus either a plain-text document or explicit
#: ``(identifier, sentence)`` requirement pairs.
Document = Union[str, Sequence[Tuple[str, str]]]


@dataclass
class BatchResult:
    """Outcome for one named document.

    A document whose pipeline raised carries the shared error record
    (:func:`~repro.service.reportjson.error_to_dict`) as *data* —
    ``verdict == "error"``, ``error`` non-None — instead of aborting its
    siblings; this shape is identical across every backend.
    """

    name: str
    data: dict  # canonical report (reportjson, timings excluded)

    @property
    def verdict(self) -> str:
        return self.data["verdict"]

    @property
    def consistent(self) -> bool:
        return self.data["consistent"]

    @property
    def error(self) -> Optional[dict]:
        """``{"type": ..., "message": ...}`` for failed documents."""
        return self.data.get("error")


def _check_document(tool: SpecCC, document: Document) -> ConsistencyReport:
    """Translate and check one document — the single place the two
    document shapes are told apart."""
    if isinstance(document, str):
        translation = tool.translator.translate_document(document)
    else:
        translation = tool.translator.translate(list(document))
    return tool.check_translated(translation)


class BatchChecker:
    """Check many documents with deterministic, backend-independent results."""

    BACKENDS = ("thread", "process", "remote")

    def __init__(
        self,
        config: SpecCCConfig = SpecCCConfig(),
        workers: int = 4,
        backend: str = "thread",
        tool: Optional[SpecCC] = None,
        pool: Optional[WorkerPool] = None,
        supervision: Optional[SupervisionConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        remote=None,
    ) -> None:
        """*tool* overrides *config*: pass it to check with a non-default
        antonym dictionary or signs (the serve loop does, so its batch
        requests judge documents exactly like its session checks).

        ``backend="thread"`` checks in this process, one document after
        another, and ignores *workers*.

        ``backend="process"`` draws a persistent pool with *workers*
        shards from the process-wide :func:`~repro.service.pool.shared_pool`
        registry; pass *pool* to pin a specific :class:`WorkerPool`
        instead (tests do, to control pool lifetime and shard counts).
        *supervision* and *fault_plan* configure the pool's recovery
        policy and fault schedule when this checker creates it (they are
        ignored for an injected or already-registered pool).

        ``backend="remote"`` needs *remote* — a started
        :class:`~repro.service.remote.RemoteWorkerHub` — or an injected
        remote-backed *pool*; *workers* then means the expected worker
        count (the pool is sharded finer, ``max(8, 4 * workers)``, so
        consistent-hash placement stays balanced as workers join and
        leave).
        """
        if backend not in self.BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend == "remote" and remote is None and pool is None:
            raise ValueError(
                "backend='remote' needs a RemoteWorkerHub (remote=) or a "
                "remote-backed WorkerPool (pool=)"
            )
        self.tool = tool if tool is not None else SpecCC(config)
        self.config = self.tool.config
        self.workers = workers
        self.backend = backend
        self.pool = pool
        self.supervision = supervision
        self.fault_plan = fault_plan
        self.remote = remote

    # ------------------------------------------------------------ running
    def check_documents(
        self, documents: Sequence[Tuple[str, Document]]
    ) -> List[BatchResult]:
        """Check ``(name, document)`` items; results come back in order."""
        items = list(documents)
        if not items:
            return []
        with _obs_span(
            "batch.check",
            documents=len(items),
            backend=self.backend,
            workers=self.workers,
        ):
            if self.backend != "thread":
                tasks = self._pool().check_documents(items)
                return [BatchResult(task.name, task.data) for task in tasks]
            results = []
            for name, document in items:
                try:
                    report = _check_document(self.tool, document)
                except Exception as error:  # noqa: BLE001 - isolated
                    results.append(BatchResult(name, error_to_dict(error)))
                else:
                    results.append(
                        BatchResult(name, report_to_dict(report, timings=False))
                    )
            return results

    def _pool(self) -> WorkerPool:
        """The pool the process and remote backends dispatch onto."""
        if self.pool is not None:
            return self.pool
        if self.backend == "process":
            return shared_pool(
                tool=self.tool,
                shards=self.workers,
                supervision=self.supervision,
                fault_plan=self.fault_plan,
            )
        # A remote-backed pool is this checker's own: it stays on
        # ``self.pool`` for reuse, and the caller shuts it down.
        self.pool = WorkerPool(
            tool=self.tool,
            shards=max(8, 4 * self.workers),
            remote=self.remote,
            supervision=self.supervision,
            fault_plan=self.fault_plan,
        )
        return self.pool
