"""The machine-readable consistency report.

One JSON shape shared by ``python -m repro check --json``, the
:func:`repro.service.server.serve` loop and :class:`~repro.service.batch.
BatchChecker` output, so downstream tooling parses a single format.

Determinism contract: with ``timings=False`` the dictionary is a pure
function of the specification and configuration — no wall-clock times, no
cache statistics — so byte-for-byte comparison across runs (and across
sequential vs. parallel batch execution) is meaningful.  Keys are emitted
in a fixed order; serialize with ``json.dumps(..., sort_keys=True)`` for
canonical bytes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.pipeline import ConsistencyReport, SpecCC


def stats_to_dict(
    tool: Optional[SpecCC] = None,
    pools: Optional[Sequence[dict]] = None,
    journal: Optional[dict] = None,
) -> dict:
    """Cache and engine-work statistics in the shared report format.

    One shape for the ``serve`` loops' ``stats`` op and the CLI's
    ``check --json --stats`` flag: the process-wide cache layers
    (component cache, semantics memo, automaton cache, interned nodes)
    under ``"cache"``, the engine-work counters under ``"synthesis"``
    (one snapshot, lifted out of the cache block so each gauge appears
    exactly once), and — when a *tool* is given — its per-document
    translation-graph node counts under ``"translation_graph"``.

    *pools* attaches worker-pool rows (``WorkerPool.stats()`` shape)
    under ``"pools"`` plus one fleet-level ``"supervision"`` summary of
    their recovery counters (restarts, retries, timeouts, degraded —
    see :func:`repro.service.supervision.aggregate_stats`), so ``check
    --stats`` and the serve ``stats`` op expose fault-tolerance state
    through the same document.

    *journal* attaches a durable-session journal's counter row
    (:meth:`repro.service.journal.JournalStore.stats` — appends, fsyncs,
    compactions, replayed records, truncated tails) under ``"journal"``
    when a serve loop runs with ``--journal``.

    When any latency histograms have accumulated (every finished span
    feeds one — see :mod:`repro.obs`), their p50/p90/p99 summaries ride
    along under ``"histograms"``.  Once a component has been analysed,
    ``"decided_by"`` maps each ladder rung to the number of components
    it decided (the registry's ``decided_by.<rung>`` counters), so both
    ``check --stats`` and the serve ``stats`` op say which rung decided.
    """
    cache = SpecCC.cache_stats()
    payload = {"cache": cache, "synthesis": cache.pop("synthesis")}
    if tool is not None:
        payload["translation_graph"] = tool.translation_cache_stats()
    if pools is not None:
        from .supervision import aggregate_stats

        payload["pools"] = list(pools)
        payload["supervision"] = aggregate_stats(pools)
    if journal is not None:
        payload["journal"] = journal
    from ..obs.metrics import registry

    histograms = registry().histograms_summary()
    if histograms:
        payload["histograms"] = histograms
    decided_by = {
        name[len("decided_by."):]: count
        for name, count in registry().counters().items()
        if name.startswith("decided_by.")
    }
    if decided_by:
        payload["decided_by"] = decided_by
    return payload


def error_to_dict(error: BaseException) -> dict:
    """The shared *error record*: what a document that failed on every
    attempt contributes to a batch report instead of aborting siblings.

    Deliberately shaped like a degenerate report — ``verdict`` and
    ``consistent`` are present so downstream code that only reads those
    keys keeps working — and deterministic (type + message only, no
    traceback addresses), so error records survive the byte-identity
    contract across backends.
    """
    return {
        "verdict": "error",
        "consistent": False,
        "error": {
            "type": type(error).__name__,
            "message": str(error),
        },
    }


def partition_to_dict(partition) -> Dict[str, list]:
    return {
        "inputs": sorted(partition.inputs),
        "outputs": sorted(partition.outputs),
    }


def report_to_dict(
    report: ConsistencyReport,
    *,
    timings: bool = True,
    cache: Optional[dict] = None,
) -> dict:
    """Serialize *report* to plain JSON-compatible data.

    *timings* includes wall-clock seconds (overall and per component);
    drop it when byte-identical output across runs matters.  *cache*
    attaches a :meth:`repro.SpecCC.cache_stats` snapshot.
    """
    translation = report.translation
    requirements = [
        {
            "identifier": requirement.identifier,
            "text": requirement.text,
            "formula": str(requirement.formula),
        }
        for requirement in translation.requirements
    ]
    identifiers = [requirement.identifier for requirement in translation.requirements]
    components = []
    for part in report.realizability.components:
        entry = {
            "identifiers": [identifiers[index] for index in part.component.indices],
            "variables": sorted(part.component.variables),
            "verdict": part.verdict.value,
            "method": part.method,
        }
        if timings:
            entry["seconds"] = part.seconds
        components.append(entry)
    data: dict = {
        "verdict": report.verdict.value,
        "consistent": report.consistent,
        "requirements": requirements,
        "partition": partition_to_dict(report.partition),
        "components": components,
        "culprits": report.inconsistent_requirements(),
        "repair_attempts": report.repair_attempts,
        "repaired_partition": (
            partition_to_dict(report.repaired_partition)
            if report.repaired_partition is not None
            else None
        ),
        "abstraction": {
            "method": translation.abstraction.method.value,
            "thetas": list(translation.abstraction.thetas),
            "scaled": list(translation.abstraction.solution.scaled),
        },
    }
    if timings:
        data["seconds"] = report.seconds
    if cache is not None:
        data["cache"] = cache
    return data
