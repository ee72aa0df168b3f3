"""The incremental analysis graph: signature-keyed pipeline stages.

The cached stages of the SpecCC pipeline — parsing, per-sentence
vocabulary extraction, per-sentence LTL translation, time abstraction,
partitioning, component realizability — are pure functions of content
the earlier stages produced (Algorithm 1 itself runs as one loop per
pass over the cached vocabulary).  This module gives those
stages one shared shape: a **node** is ``(stage, key)`` where the key is a
content signature of everything the computation reads, and the node's
value is the computed artefact.  Because keys are content signatures,
invalidation is free: an edit changes the signature, the changed node
misses, and every node whose signature is unaffected by the edit keeps
hitting — editing one sentence re-extracts and re-translates only that
sentence, and re-checks only the components it touches.

Two graph flavours cover the pipeline:

* **Per-document graphs** (``lru=False``) back a
  :class:`~repro.translate.translator.TranslationCache`: stages grow
  freely during one translation pass and :meth:`AnalysisGraph.retain`
  afterwards prunes any stage that outgrew its bound back to the keys the
  pass actually touched — exactly the hot set the next edit's re-check
  needs.
* **The process-wide shared graph** (:func:`shared_graph`, ``lru=True``)
  hosts the one stage whose values are valid across documents, sessions
  and threads alike: realizability component outcomes.  It evicts
  least-recently used entries at insert time, since no single pass owns
  them.

All operations are thread safe (serve executor threads and the worker
pool's in-process fallback check documents concurrently over the shared
stage).  Values must be deterministic functions of their keys: when two
threads race on a miss, both compute, one insert wins, and the results
are identical by construction — which is also why the caches are
semantically transparent and reports stay byte-identical to cache-less
runs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)


class StageStats(NamedTuple):
    """Size and traffic counters of one stage's memo."""

    size: int
    capacity: int
    hits: int
    misses: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "size": self.size,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
        }


class _Stage:
    """One stage's bounded memo (always accessed under the graph lock)."""

    __slots__ = ("name", "capacity", "entries", "hits", "misses")

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.capacity = capacity
        self.entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def stats(self) -> StageStats:
        return StageStats(len(self.entries), self.capacity, self.hits, self.misses)


class AnalysisGraph:
    """A signature-keyed memo over named pipeline stages.

    *stages* names the stages the graph accepts; *max_entries* bounds each
    stage's memo (override per stage via *capacities*).  With ``lru=True``
    a stage evicts its least-recently-used entry as soon as an insert
    exceeds the bound; with ``lru=False`` stages may grow past the bound
    during a pass and are pruned by :meth:`retain` afterwards.
    """

    def __init__(
        self,
        stages: Sequence[str],
        max_entries: int = 2048,
        capacities: Optional[Mapping[str, int]] = None,
        lru: bool = False,
    ) -> None:
        capacities = dict(capacities or {})
        self._lock = threading.Lock()
        self._lru = lru
        self._stages: Dict[str, _Stage] = {
            name: _Stage(name, capacities.get(name, max_entries))
            for name in stages
        }

    # ------------------------------------------------------------- helpers
    def _stage(self, stage: str) -> _Stage:
        try:
            return self._stages[stage]
        except KeyError:
            raise KeyError(f"unknown stage {stage!r}") from None

    def stage_names(self) -> Tuple[str, ...]:
        return tuple(self._stages)

    # ------------------------------------------------------------- compute
    def compute(
        self,
        stage: str,
        key: Hashable,
        fn: Callable[[], object],
        touched: Optional[Mapping[str, set]] = None,
    ) -> object:
        """The cached value of node ``(stage, key)``, computing on a miss.

        *fn* runs outside the lock (it may be expensive); on a race the
        first insert wins and both callers observe identical values.
        *touched*, when given, is a caller-local ``{stage: set(keys)}`` map
        the node is added to, feeding the end-of-pass :meth:`retain`.
        """
        if touched is not None:
            touched[stage].add(key)
        memo = self._stage(stage)
        with self._lock:
            if key in memo.entries:
                memo.hits += 1
                if self._lru:
                    memo.entries.move_to_end(key)
                return memo.entries[key]
            memo.misses += 1
        value = fn()
        with self._lock:
            if key not in memo.entries:
                memo.entries[key] = value
                if self._lru:
                    while len(memo.entries) > memo.capacity:
                        memo.entries.popitem(last=False)
            else:
                value = memo.entries[key]
        return value

    def contains(self, stage: str, key: Hashable) -> bool:
        """Pure membership probe — no counters, no LRU reordering."""
        with self._lock:
            return key in self._stage(stage).entries

    def get(self, stage: str, key: Hashable, default: object = None) -> object:
        """Counter-free peek at a node's value."""
        with self._lock:
            return self._stage(stage).entries.get(key, default)

    # ------------------------------------------------------------- hygiene
    def retain(self, touched: Mapping[str, Iterable[Hashable]]) -> None:
        """End-of-pass GC: prune stages that outgrew their bound.

        For every stage in *touched* whose memo exceeds its capacity, keep
        only the keys the finished pass touched (the hot set the next
        incremental re-check will read).  Cheap in the steady state:
        under-bound stages are left alone.
        """
        with self._lock:
            for name, keys in touched.items():
                memo = self._stages.get(name)
                if memo is None or len(memo.entries) <= memo.capacity:
                    continue
                memo.entries = OrderedDict(
                    (key, memo.entries[key])
                    for key in keys
                    if key in memo.entries
                )

    def set_capacity(self, capacity: int, stage: Optional[str] = None) -> None:
        with self._lock:
            stages: List[_Stage] = (
                [self._stage(stage)] if stage is not None else list(self._stages.values())
            )
            for memo in stages:
                memo.capacity = capacity

    def clear(self) -> None:
        """Drop every node and counter (benchmarks; memory bounds)."""
        with self._lock:
            for memo in self._stages.values():
                memo.entries.clear()
                memo.hits = 0
                memo.misses = 0

    def reset_counters(self) -> None:
        """Zero every stage's hit/miss counters, keeping cached values.

        The observability reset (:func:`repro.obs.metrics.reset_counters`)
        calls this so counter surfaces zero together without evicting
        anything — resetting telemetry must never change what computes.
        """
        with self._lock:
            for memo in self._stages.values():
                memo.hits = 0
                memo.misses = 0

    # ------------------------------------------------------- observability
    def stats(self) -> Dict[str, StageStats]:
        with self._lock:
            return {name: memo.stats() for name, memo in self._stages.items()}

    def sizes(self) -> Dict[str, int]:
        with self._lock:
            return {name: len(memo.entries) for name, memo in self._stages.items()}

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Picklable per-stage counters (worker processes ship these)."""
        return {name: stats.as_dict() for name, stats in self.stats().items()}


# ------------------------------------------------------ the shared graph
#: The stage whose nodes are valid process-wide: realizability component
#: outcomes (``components``).  Sessions, one-shot checks, batch checks and
#: pool workers all read the same nodes, so reuse crosses every entry point.
SHARED_STAGE_CAPACITIES: Dict[str, int] = {
    "components": 2048,
}

_shared = AnalysisGraph(
    stages=tuple(SHARED_STAGE_CAPACITIES),
    capacities=SHARED_STAGE_CAPACITIES,
    lru=True,
)


def shared_graph() -> AnalysisGraph:
    """The process-wide analysis graph (the cross-document stage)."""
    return _shared
