"""Checking many documents: in this process or on worker processes.

:class:`BatchChecker` takes ``(name, document)`` items and returns one
canonical report dictionary (``report_to_dict(report, timings=False)``)
per document, in input order.  The two backends run the same
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
  shard that already analysed them.  This is where a batch gets CPU
  parallelism.  Pool workers return canonical report dictionaries:
  interned formulas must not cross process boundaries.
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

    BACKENDS = ("thread", "process")

    def __init__(
        self,
        config: SpecCCConfig = SpecCCConfig(),
        workers: int = 4,
        backend: str = "thread",
        tool: Optional[SpecCC] = None,
        pool: Optional[WorkerPool] = None,
        supervision: Optional[SupervisionConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        """*tool* overrides *config*: the checker shares that tool and
        its config (the serve loop passes its session's tool, so its batch
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
        """
        if backend not in self.BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.tool = tool if tool is not None else SpecCC(config)
        self.config = self.tool.config
        self.workers = workers
        self.backend = backend
        self.pool = pool
        self.supervision = supervision
        self.fault_plan = fault_plan

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
            if self.backend == "process":
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
        """The pool the process backend dispatches onto."""
        if self.pool is not None:
            return self.pool
        return shared_pool(
            self.config,
            shards=self.workers,
            supervision=self.supervision,
            fault_plan=self.fault_plan,
        )
