"""Concurrent checking of many documents — and of their components.

:class:`BatchChecker` fans a list of requirement documents out over a
worker pool in three phases:

1. **translate** every document (parallel; the interning pools and all
   per-node memos are thread-safe),
2. **warm** the component-outcome cache: every variable-connected
   component of every document is checked as an independent unit, so the
   pool's parallelism applies *within* a document too, not just across
   documents,
3. **aggregate**: each document runs through the ordinary pipeline code
   path (:meth:`repro.SpecCC.check_translated`) — concurrently across
   documents, but over warmed caches — and results are collected in
   input order.

Determinism does not come from serialising phase 3 (it is concurrent);
it comes from the pipeline itself being a deterministic function of one
document plus semantically transparent caches: a cache can only change
*who computes* a component outcome first, never what the outcome is, and
no phase mutates per-tool state.  The canonical JSON report
(``timings=False``) is therefore byte-identical to a ``workers=1`` run;
``tests/test_service.py`` asserts this byte-for-byte.

Threads share the process-wide caches (maximum reuse across documents)
but are GIL-bound; ``backend="process"`` trades cache sharing for real
CPU parallelism by dispatching documents onto the persistent sharded
:class:`~repro.service.pool.WorkerPool` (workers are spawned once, keep
their caches warm across tasks, and repeated documents route to the
shard that already analysed them).  ``backend="remote"`` dispatches the
same tasks to ``python -m repro worker`` processes registered with a
:class:`~repro.service.remote.RemoteWorkerHub` — other machines' CPUs
behind the identical pool/supervision seam.  Every backend's workers
return canonical report dictionaries (interned formulas must not cross
process boundaries), and every backend's reports are byte-identical.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..core.pipeline import ConsistencyReport, SpecCC, SpecCCConfig
from ..obs.trace import span as _obs_span
from ..synthesis.modular import decompose
from ..translate.translator import SpecificationTranslation, Translator
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
    report: Optional[ConsistencyReport] = None  # absent for process workers

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


def _translate_document(
    translator: Translator, document: Document
) -> SpecificationTranslation:
    """The single place the two document shapes are told apart."""
    if isinstance(document, str):
        return translator.translate_document(document)
    return translator.translate(list(document))


def _check_document(tool: SpecCC, document: Document) -> ConsistencyReport:
    return tool.check_translated(_translate_document(tool.translator, document))


class BatchChecker:
    """Check many documents concurrently with deterministic results."""

    BACKENDS = ("thread", "process", "remote")

    def __init__(
        self,
        config: SpecCCConfig = SpecCCConfig(),
        workers: int = 4,
        backend: str = "thread",
        warm_components: bool = True,
        tool: Optional[SpecCC] = None,
        pool: Optional[WorkerPool] = None,
        supervision: Optional[SupervisionConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        remote=None,
    ) -> None:
        """*tool* overrides *config*: pass it to check with a non-default
        antonym dictionary or signs (the serve loop does, so its batch
        requests judge documents exactly like its session checks).

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
        self.warm_components = warm_components
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
            return self._check_documents(items)

    def _check_documents(
        self, items: List[Tuple[str, Document]]
    ) -> List[BatchResult]:
        if self.backend == "process":
            return self._run_pool(items)
        if self.backend == "remote":
            return self._run_remote(items)
        if self.workers == 1:
            results = []
            for name, document in items:
                try:
                    report = _check_document(self.tool, document)
                except Exception as error:  # noqa: BLE001 - isolated
                    results.append(BatchResult(name, error_to_dict(error)))
                    continue
                results.append(
                    BatchResult(
                        name, report_to_dict(report, timings=False), report=report
                    )
                )
            return results
        return self._run_threads(items)

    # ----------------------------------------------------------- backends
    def _run_threads(self, items: List[Tuple[str, Document]]) -> List[BatchResult]:
        translator = self.tool.translator

        def translate(item):
            try:
                return _translate_document(translator, item[1]), None
            except Exception as error:  # noqa: BLE001 - isolated
                return None, error

        def warm(unit):
            try:
                self.tool.check_component(unit[0], unit[1])
            except Exception:  # noqa: BLE001 - warming is best-effort
                pass

        def aggregate(translated):
            translation, error = translated
            if translation is None:
                return None, error
            try:
                return self.tool.check_translated(translation), None
            except Exception as failure:  # noqa: BLE001 - isolated
                return None, failure

        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            translations = list(pool.map(translate, items))

            if self.warm_components:
                units = [
                    (component, translation.partition)
                    for translation, _ in translations
                    if translation is not None
                    for component in decompose(list(translation.formulas))
                ]
                # Populate the outcome cache; results are discarded — the
                # aggregation phase re-reads them through the normal path.
                list(pool.map(warm, units))

            reports = list(pool.map(aggregate, translations))
        return [
            BatchResult(
                name, report_to_dict(report, timings=False), report=report
            )
            if report is not None
            else BatchResult(name, error_to_dict(error))
            for (name, _), (report, error) in zip(items, reports)
        ]

    def _run_pool(self, items: List[Tuple[str, Document]]) -> List[BatchResult]:
        """Dispatch onto the persistent sharded pool (warm worker caches)."""
        pool = self.pool
        if pool is None:
            pool = shared_pool(
                tool=self.tool,
                shards=self.workers,
                supervision=self.supervision,
                fault_plan=self.fault_plan,
            )
        tasks = pool.check_documents(items)
        return [BatchResult(task.name, task.data) for task in tasks]

    def _run_remote(self, items: List[Tuple[str, Document]]) -> List[BatchResult]:
        """Dispatch onto registered remote workers via the hub."""
        pool = self.pool
        if pool is None:
            pool = WorkerPool(
                tool=self.tool,
                shards=max(8, 4 * self.workers),
                remote=self.remote,
                supervision=self.supervision,
                fault_plan=self.fault_plan,
            )
            self.pool = pool  # reused (and shut down) by the caller
        tasks = pool.check_documents(items)
        return [BatchResult(task.name, task.data) for task in tasks]
