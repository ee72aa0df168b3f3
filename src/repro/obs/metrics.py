"""The unified metrics surface: counters, gauges, latency histograms.

Before this module the repo had *disjoint* counter surfaces —
``SpecCC.cache_stats()`` (the component cache's hit/miss counters among
them), the SAT/game engine accumulators (``synthesis_stats()``), worker-pool
routing counters (``pool.stats()``) and the supervision recovery
counters — each with its own dict shape and its own reset path.  The
:class:`MetricsRegistry` absorbs all of them behind **one namespaced
read API** without breaking any of the existing shapes: the legacy
surfaces stay exactly as they are (their tests and callers keep
working), and the registry reads them through registered *collectors*
at snapshot time:

=============== ====================================================
namespace       source
=============== ====================================================
``pipeline.*``  :func:`repro.synthesis.realizability.cache_snapshot`
                (the component-outcome LRU, automaton cache,
                interned nodes)
``sat.*``       ``synthesis_stats()`` SAT counters (propagations,
                conflicts, decisions, restarts, clause visits) of
                the bounded dual's solves only; the obligation
                certificate's solves are not counted
``game.*``      ``synthesis_stats()`` safety-game counters
``pool.*``      every registered worker pool's ``stats()`` row
``supervision.*`` fleet-level recovery counters
                (:func:`repro.service.supervision.aggregate_stats`)
``gateway.*``   TCP gateway connection/session gauges
                (:meth:`repro.service.gateway.SpecGateway.stats`,
                registered while a gateway is serving)
``journal.*``   durable-session journal counters — appends, fsyncs,
                compactions, replayed records, truncated tails,
                duplicate acks
                (:meth:`repro.service.journal.JournalStore.stats`,
                registered while a serve loop journals)
=============== ====================================================

On top of the collected namespaces the registry owns *native*
instruments: monotonic *counters* (e.g. the serve loop's per-op request
counts), *gauges*, and fixed-bucket latency *histograms* with
p50/p90/p99 summaries — fed by the tracer (every finished span's
duration lands in ``span.<name>``, queued by :meth:`observe_span` and
folded in when the histograms are read), surfaced through the
``metrics`` serve op and ``check --stats``.

**One reset path.**  Counter surfaces used to be reset by different
code paths, which could leave cross-surface ratios inconsistent — a hit
count on one surface with its matching lookup total already zeroed on
another.  :func:`reset_counters` is the single owner: it zeroes the
component cache's hit/miss counts, the synthesis accumulators and the
registry's native instruments in one call, and
``repro.synthesis.realizability.clear_caches`` routes through it.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Latency bucket upper bounds, in seconds, sorted.  Spans in this
#: codebase range from microsecond cache hits to multi-second solver
#: calls, so the buckets are log-spaced across six decades.
BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Queued span records that trigger a fold into the histograms without
#: waiting for a read (bounds the queue on traced runs nobody reads).
SPAN_FOLD_BATCH = 4096


class Histogram:
    """A fixed-bucket latency histogram with interpolated quantiles.

    Observations are counted into ``len(BUCKETS) + 1`` bins (the last
    bin is the overflow above the largest bound); quantiles interpolate
    linearly inside the containing bucket, clamped to the observed
    min/max so a single observation reports itself exactly.
    """

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts: List[int] = [0] * (len(BUCKETS) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(BUCKETS, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q: float) -> Optional[float]:
        """The *q*-quantile (0..1) estimated from the bucket counts."""
        if self.count == 0:
            return None
        target = q * self.count
        seen = 0.0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= target:
                low = BUCKETS[index - 1] if index > 0 else 0.0
                high = (
                    BUCKETS[index]
                    if index < len(BUCKETS)
                    else (self.max if self.max is not None else low)
                )
                fraction = (target - seen) / bucket_count
                value = low + (high - low) * fraction
                if self.min is not None:
                    value = max(value, self.min)
                if self.max is not None:
                    value = min(value, self.max)
                return value
            seen += bucket_count
        return self.max

    def summary(self) -> Dict[str, Optional[float]]:
        """The headline numbers: count, sum, min/max, p50/p90/p99."""
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def snapshot(self) -> Dict[str, object]:
        data: Dict[str, object] = dict(self.summary())
        data["buckets"] = list(BUCKETS)
        data["counts"] = list(self.counts)
        return data


class MetricsRegistry:
    """Thread-safe registry of counters, gauges, histograms, collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: Dict[str, Callable[[], object]] = {}
        self._queued_spans: List[Dict[str, Any]] = []

    # -------------------------------------------------- native instruments
    def counter(self, name: str, value: int = 1) -> int:
        """Increment (and return) the monotonic counter *name*."""
        with self._lock:
            total = self._counters.get(name, 0) + value
            self._counters[name] = total
            return total

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe_span(self, record: Dict[str, Any]) -> None:
        """Queue a finished span *record* (``dur`` in µs) for its
        ``span.<name>`` histogram.

        Tracing calls this once per span, so it costs one list append:
        queued records are folded in on the next read, or once
        :data:`SPAN_FOLD_BATCH` of them wait.  Appends and the in-place
        fold are each atomic under the GIL, so no record is lost to a
        concurrent fold.
        """
        queued = self._queued_spans
        queued.append(record)
        if len(queued) >= SPAN_FOLD_BATCH:
            with self._lock:
                self._fold_spans()

    def _fold_spans(self) -> None:
        """Fold queued span records into their histograms (hold _lock)."""
        queued = self._queued_spans
        count = len(queued)
        for record in queued[:count]:
            name = "span." + record["name"]
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(record["dur"] / 1e6)
        del queued[:count]

    # ----------------------------------------------------------- collectors
    def register_collector(self, namespace: str, fn: Callable[[], object]) -> None:
        """Attach a read-through *namespace*: *fn* is called at snapshot
        time and must return plain JSON-safe data.  Registering the same
        namespace again replaces the collector (idempotent setup)."""
        with self._lock:
            self._collectors[namespace] = fn

    # ------------------------------------------------------------ snapshots
    def counters(self) -> Dict[str, int]:
        """The native counters, sorted by name (e.g. ``decided_by.<rung>``)."""
        with self._lock:
            counters = dict(self._counters)
        return {name: counters[name] for name in sorted(counters)}

    def histograms_summary(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Per-histogram p50/p90/p99 summaries (no bucket arrays) — the
        compact form ``check --stats`` and the serve ``stats`` op attach."""
        with self._lock:
            self._fold_spans()
            histograms = dict(self._histograms)
        return {name: histograms[name].summary() for name in sorted(histograms)}

    def snapshot(self, full: bool = True) -> Dict[str, object]:
        """The whole surface as one JSON-safe document.

        Native instruments under ``"counters"``/``"gauges"``/
        ``"histograms"`` (bucket arrays included when *full*), then one
        key per registered collector namespace.  A collector that raises
        reports ``{"error": ...}`` under its namespace instead of taking
        the snapshot down — the metrics surface must stay readable while
        the thing it measures is on fire.
        """
        counters = self.counters()
        with self._lock:
            self._fold_spans()
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            collectors = dict(self._collectors)
        data: Dict[str, object] = {
            "counters": counters,
            "gauges": {name: gauges[name] for name in sorted(gauges)},
            "histograms": {
                name: (
                    histograms[name].snapshot()
                    if full
                    else histograms[name].summary()
                )
                for name in sorted(histograms)
            },
        }
        for namespace in sorted(collectors):
            try:
                data[namespace] = collectors[namespace]()
            except Exception as error:  # noqa: BLE001 - stay readable
                data[namespace] = {"error": f"{type(error).__name__}: {error}"}
        return data

    def reset(self) -> None:
        """Zero the native instruments (collector sources are reset by
        their owners — see :func:`reset_counters`)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            del self._queued_spans[:]


# --------------------------------------------------- the process registry
_registry: Optional[MetricsRegistry] = None
_registry_lock = threading.Lock()


def _collect_pipeline() -> dict:
    from ..synthesis.realizability import cache_snapshot

    snapshot = cache_snapshot()
    snapshot.pop("synthesis", None)  # lives under sat.* / game.*
    return snapshot


def _split_synthesis() -> Tuple[dict, dict]:
    from ..synthesis.realizability import synthesis_stats

    stats = synthesis_stats()
    sat = {
        key[len("sat_"):]: value
        for key, value in stats.items()
        if key.startswith("sat_")
    }
    game = {
        key[len("game_"):]: value
        for key, value in stats.items()
        if key.startswith("game_")
    }
    return sat, game


def _collect_sat() -> dict:
    return _split_synthesis()[0]


def _collect_game() -> dict:
    return _split_synthesis()[1]


def _collect_pool() -> dict:
    from ..service.pool import shared_pool_stats

    rows = shared_pool_stats()
    return {
        "pools": len(rows),
        "tasks": sum(row.get("tasks", 0) for row in rows),
        "failures": sum(row.get("failures", 0) for row in rows),
        "rows": rows,
    }


def _collect_supervision() -> dict:
    from ..service.pool import shared_pool_stats
    from ..service.supervision import aggregate_stats

    return aggregate_stats(shared_pool_stats())


def registry() -> MetricsRegistry:
    """The process-wide registry, with the standard collectors attached."""
    global _registry
    if _registry is None:
        with _registry_lock:
            if _registry is None:
                fresh = MetricsRegistry()
                fresh.register_collector("pipeline", _collect_pipeline)
                fresh.register_collector("sat", _collect_sat)
                fresh.register_collector("game", _collect_game)
                fresh.register_collector("pool", _collect_pool)
                fresh.register_collector("supervision", _collect_supervision)
                _registry = fresh
    return _registry


def reset_counters() -> None:
    """THE observability reset: zero every counter surface in one call.

    Covers the component cache's hit/miss counters, the
    SAT/game engine accumulators and the registry's native instruments —
    leaving cached *values* untouched, so resetting observability never
    changes what the pipeline computes.  ``clear_caches()`` (which does
    drop values) routes through here, so the two reset paths can never
    disagree again: after either, every surface reads zero and no
    surface can report a hit count its sibling's lookup total has
    already forgotten.
    """
    from ..synthesis.realizability import reset_synthesis_stats

    reset_synthesis_stats()
    registry().reset()
