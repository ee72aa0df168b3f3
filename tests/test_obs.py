"""Tests of the observability layer (``repro.obs``).

The contracts under test, in order of importance:

* **Tracing never changes results** — the canonical report bytes are
  identical with a tracer installed and without one.
* **Tracing off is a no-op** — instrumented call sites get the shared
  null handle when no tracer is active.
* **Exports are well-formed** — Chrome trace JSON passes the same
  structural validator CI runs (``benchmarks/trace_schema.py``): only
  balanced ``B``/``E`` pairs, monotone per-track timestamps.
* **Cross-process stitching** — pool-worker spans ship back through the
  result pipe and land under the dispatching ``pool.task`` span, one
  track per shard.
* **One metrics surface, one reset** — the registry exposes the legacy
  counter surfaces as namespaces without changing their shapes, and
  :func:`repro.obs.reset_counters` zeroes every surface together while
  leaving cached values untouched.
"""

from __future__ import annotations

import importlib.util
import io
import json
import logging
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import SpecCC, SpecSession
from repro.__main__ import main as cli_main
from repro.obs import (
    BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_SPAN,
    Tracer,
    activated,
    chrome_events,
    get_tracer,
    leaf_span,
    registry,
    reset_counters,
    set_process_tracer,
    span,
    tracing_active,
)
from repro.obs import metrics as metrics_module
from repro.obs.metrics import SPAN_FOLD_BATCH
from repro.service.server import normalize_response, serve

DOC = (
    "If the sensor is active, the valve is opened.\n"
    "If the button is pressed, the lamp is activated.\n"
)


def _load_trace_schema():
    """The CI validator, imported from benchmarks/ (not a package)."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "trace_schema.py"
    spec = importlib.util.spec_from_file_location("trace_schema", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace_schema = _load_trace_schema()


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing off."""
    set_process_tracer(None)
    yield
    set_process_tracer(None)


class TestTracer:
    def test_nested_spans_record_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            with tracer.span("sibling"):
                pass
        records = tracer.records()
        by_name = {record["name"]: record for record in records}
        assert set(by_name) == {"outer", "inner", "sibling"}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["sibling"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["args"] == {"kind": "test"}
        for record in records:
            assert record["dur"] >= 0
            assert record["ts"] >= 0

    def test_no_tracer_returns_the_shared_null_span(self):
        assert not tracing_active()
        handle = span("anything", x=1)
        assert handle is NULL_SPAN
        # The null handle supports the full protocol.
        with handle as inner:
            assert inner.set(more=2) is inner
        assert handle.id is None

    def test_process_tracer_activates_module_span(self):
        tracer = Tracer()
        previous = set_process_tracer(tracer)
        assert previous is None
        assert tracing_active()
        with span("work"):
            pass
        assert [record["name"] for record in tracer.records()] == ["work"]
        assert set_process_tracer(None) is tracer

    def test_context_tracer_overrides_process_tracer(self):
        process = Tracer(name="process")
        request = Tracer(name="request")
        set_process_tracer(process)
        with activated(request):
            assert get_tracer() is request
            with span("routed"):
                pass
        assert get_tracer() is process
        assert process.records() == []
        assert [record["name"] for record in request.records()] == ["routed"]

    def test_activated_none_falls_through_to_process(self):
        process = Tracer()
        set_process_tracer(process)
        with activated(None):
            with span("still-recorded"):
                pass
        assert len(process.records()) == 1

    def test_exception_annotates_and_closes_the_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (record,) = tracer.records()
        assert record["args"]["error"] == "RuntimeError"

    def test_records_since_mark(self):
        tracer = Tracer()
        with tracer.span("before"):
            pass
        mark = tracer.mark()
        with tracer.span("after"):
            pass
        assert [r["name"] for r in tracer.records_since(mark)] == ["after"]

    def test_drain_empties_the_tracer(self):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        batch = tracer.drain()
        assert len(batch) == 1
        assert tracer.records() == []

    def test_slow_span_logged_with_attributes(self, caplog):
        tracer = Tracer(slow_ms=0.0)
        with caplog.at_level(logging.WARNING, logger="repro.obs.trace"):
            with tracer.span("slowpoke", detail="payload"):
                pass
        messages = [r.getMessage() for r in caplog.records]
        assert any("slowpoke" in m and "payload" in m for m in messages)

    def test_adopt_stitches_a_shipped_batch(self):
        worker = Tracer()
        with worker.span("task"):
            with worker.span("step"):
                pass
        batch = worker.drain()

        parent = Tracer()
        with parent.span("dispatch") as dispatch:
            parent.adopt(batch, parent=dispatch, tid="shard3", offset_us=dispatch.ts)
        by_name = {record["name"]: record for record in parent.records()}
        assert by_name["task"]["parent"] == by_name["dispatch"]["id"]
        assert by_name["step"]["parent"] == by_name["task"]["id"]
        assert by_name["task"]["tid"] == "shard3"
        assert by_name["step"]["tid"] == "shard3"
        # Adopted ids were re-allocated: no collisions with local spans.
        ids = [record["id"] for record in parent.records()]
        assert len(ids) == len(set(ids))

    def test_leaf_span_lands_under_the_open_span(self):
        registry().reset()
        tracer = Tracer()
        with activated(tracer):
            with span("outer") as outer:
                start_ns = time.perf_counter_ns()
                leaf_span("leaf", start_ns, sat=True)
        leaf, outer_record = tracer.records()
        assert leaf["name"] == "leaf"
        assert leaf["parent"] == outer.id
        assert leaf["args"] == {"sat": True}
        assert outer_record["ts"] <= leaf["ts"]
        assert 0 <= leaf["dur"] <= outer_record["dur"]
        assert registry().histograms_summary()["span.leaf"]["count"] == 1

    def test_leaf_span_untraced_records_nothing(self):
        registry().reset()
        assert get_tracer() is None
        leaf_span("leaf", time.perf_counter_ns(), sat=True)
        assert "span.leaf" not in registry().histograms_summary()

    def test_every_span_feeds_a_latency_histogram(self):
        registry().reset()
        tracer = Tracer()
        with tracer.span("pipeline.unit"):
            pass
        summary = registry().histograms_summary()
        assert summary["span.pipeline.unit"]["count"] == 1


class TestChromeExport:
    def test_export_passes_the_ci_validator(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root", label="r"):
            with tracer.span("child"):
                pass
        target = tmp_path / "trace.json"
        events = tracer.export_chrome(target)
        assert events == 4  # two spans, one B + one E each
        summary = trace_schema.validate_file(target)
        assert summary["spans"] == 2

    def test_adopted_batch_exports_balanced_tracks(self, tmp_path):
        worker = Tracer()
        with worker.span("worker.check"):
            pass
        batch = worker.drain()
        parent = Tracer()
        with parent.span("pool.task") as sp:
            parent.adopt(batch, parent=sp, tid="shard0", offset_us=sp.ts)
        target = tmp_path / "stitched.json"
        parent.export_chrome(target)
        summary = trace_schema.validate_file(target)
        assert summary["spans"] == 2
        assert summary["tracks"] == 2  # MainThread + shard0

    def test_events_nest_even_with_tied_timestamps(self):
        records = [
            {"name": "a", "ts": 0.0, "dur": 5.0, "id": 1, "parent": None,
             "tid": "t", "args": {}},
            {"name": "b", "ts": 0.0, "dur": 5.0, "id": 2, "parent": 1,
             "tid": "t", "args": {}},
        ]
        events = chrome_events(records, pid=1)
        trace_schema.validate_events(events)
        assert [event["ph"] for event in events] == ["B", "B", "E", "E"]


class TestHistogram:
    def test_single_observation_reports_itself_exactly(self):
        histogram = Histogram()
        histogram.observe(0.0123)
        summary = histogram.summary()
        assert summary["count"] == 1
        assert summary["min"] == summary["max"] == 0.0123
        assert summary["p50"] == summary["p99"] == 0.0123

    def test_quantiles_are_ordered(self):
        histogram = Histogram()
        for value in (0.001, 0.002, 0.004, 0.008, 0.016, 0.2, 0.9):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["p50"] <= summary["p90"] <= summary["p99"]
        assert summary["min"] <= summary["p50"]
        assert summary["p99"] <= summary["max"]

    def test_overflow_bucket_catches_outliers(self, monkeypatch):
        monkeypatch.setattr(metrics_module, "BUCKETS", (0.1, 1.0))
        histogram = Histogram()
        histogram.observe(100.0)
        assert histogram.counts == [0, 0, 1]
        assert histogram.quantile(0.5) == 100.0

    def test_empty_histogram_has_no_quantiles(self):
        assert Histogram().quantile(0.5) is None

    def test_buckets_are_sorted(self):
        assert list(BUCKETS) == sorted(BUCKETS)


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        assert reg.counter("serve.requests") == 1
        assert reg.counter("serve.requests", 4) == 5
        reg.set_gauge("pool.shards", 2.0)
        reg.observe_span({"name": "check", "dur": 250_000.0})
        snapshot = reg.snapshot()
        assert snapshot["counters"] == {"serve.requests": 5}
        assert snapshot["gauges"] == {"pool.shards": 2.0}
        assert snapshot["histograms"]["span.check"]["count"] == 1
        assert "buckets" in snapshot["histograms"]["span.check"]
        compact = reg.snapshot(full=False)
        assert "buckets" not in compact["histograms"]["span.check"]

    def test_queued_spans_fold_on_read_and_reset_drops_them(self):
        reg = MetricsRegistry()
        for dur_us in (100.0, 300.0):
            reg.observe_span({"name": "solve.component", "dur": dur_us})
        summary = reg.histograms_summary()["span.solve.component"]
        assert (summary["count"], summary["min"], summary["max"]) == (2, 0.0001, 0.0003)
        reg.observe_span({"name": "solve.component", "dur": 50.0})
        assert reg.snapshot()["histograms"]["span.solve.component"]["count"] == 3
        reg.observe_span({"name": "sat.solve", "dur": 5.0})
        reg.reset()
        assert reg.histograms_summary() == {}

    def test_span_queue_folds_itself_at_the_batch_bound(self):
        reg = MetricsRegistry()
        for _ in range(SPAN_FOLD_BATCH):
            reg.observe_span({"name": "sat.solve", "dur": 5.0})
        assert reg._queued_spans == []
        assert reg._histograms["span.sat.solve"].count == SPAN_FOLD_BATCH

    def test_concurrent_spans_lose_no_record_or_observation(self):
        # Eight threads (more than cores) share one tracer and the span
        # queue, appending without a lock while a reader thread keeps
        # folding the queue under the lock.
        registry().reset()
        tracer = Tracer()
        rounds = 700
        done = threading.Event()

        def work():
            for _ in range(rounds):
                with tracer.span("outer"):
                    with tracer.span("inner"):
                        leaf_span("leaf", time.perf_counter_ns())

        def read():
            while not done.is_set():
                registry().histograms_summary()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        set_process_tracer(tracer)  # leaf_span in the threads finds it
        try:
            reader = threading.Thread(target=read)
            reader.start()
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            done.set()
            reader.join(timeout=60)
            set_process_tracer(None)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + [reader])
        records = tracer.records()
        assert len(records) == 8 * rounds * 3
        by_id = {record["id"]: record for record in records}
        assert len(by_id) == len(records)
        for record in records:
            if record["parent"] is not None:
                assert by_id[record["parent"]]["tid"] == record["tid"]
        summary = registry().histograms_summary()
        registry().reset()
        for name in ("outer", "inner", "leaf"):
            assert summary["span." + name]["count"] == 8 * rounds, name

    def test_raising_collector_reports_error_not_crash(self):
        reg = MetricsRegistry()

        def explode():
            raise RuntimeError("meter on fire")

        reg.register_collector("flaky", explode)
        snapshot = reg.snapshot()
        assert "meter on fire" in snapshot["flaky"]["error"]

    def test_process_registry_exposes_the_legacy_namespaces(self):
        SpecCC().check_document(DOC)
        snapshot = registry().snapshot()
        for namespace in ("pipeline", "sat", "game", "pool", "supervision"):
            assert namespace in snapshot, namespace
        # The legacy shapes survive: pipeline carries the cache layers,
        # sat/game split the synthesis accumulators by prefix.
        assert "component_cache" in snapshot["pipeline"]
        assert "propagations" in snapshot["sat"]
        assert "positions" in snapshot["game"]
        assert "attempts" in snapshot["supervision"]


class TestUnifiedReset:
    def test_reset_counters_zeroes_every_surface_keeping_values(self):
        tool = SpecCC()
        tool.check_document(DOC)
        tool.check_document(DOC)  # repeat: guarantees cache hits
        from repro.synthesis.realizability import (
            component_cache_info,
            synthesis_stats,
        )

        before = component_cache_info()
        assert before.hits and before.misses

        reset_counters()

        after = component_cache_info()
        assert (after.hits, after.misses) == (0, 0)
        assert after.size == before.size  # values untouched
        assert all(v == 0 for v in synthesis_stats().values())
        assert registry().histograms_summary() == {}
        report = tool.check_document(DOC)  # ... and still served: hits only
        components = len(report.realizability.components)
        assert component_cache_info()[2:] == (components, 0)

    def test_clear_caches_routes_through_the_one_reset(self):
        tool = SpecCC()
        tool.check_document(DOC)
        registry().observe_span({"name": "probe", "dur": 100_000.0})
        SpecCC.clear_caches()
        from repro.synthesis.realizability import synthesis_stats

        assert all(v == 0 for v in synthesis_stats().values())
        assert registry().histograms_summary() == {}


class TestTracingNeverChangesResults:
    def test_report_bytes_identical_traced_and_untraced(self):
        from repro.service.reportjson import report_to_dict

        def canonical_bytes() -> str:
            report = SpecCC().check_document(DOC)
            return json.dumps(
                report_to_dict(report, timings=False), sort_keys=True
            )

        untraced = canonical_bytes()
        tracer = Tracer(name="identity-check")
        set_process_tracer(tracer)
        try:
            traced = canonical_bytes()
        finally:
            set_process_tracer(None)
        assert traced == untraced
        assert len(tracer.records()) > 0  # the tracer really was live


class TestCLITraceExport:
    def test_check_trace_out_writes_a_valid_trace(self, tmp_path, capsys):
        document = tmp_path / "doc.txt"
        document.write_text(DOC)
        target = tmp_path / "trace.json"
        code = cli_main(["check", str(document), "--trace-out", str(target)])
        assert code == 0
        summary = trace_schema.validate_file(target)
        assert summary["spans"] > 0
        assert f"{target}" in capsys.readouterr().err
        names = {
            event["name"]
            for event in json.loads(target.read_text())["traceEvents"]
        }
        # Every pipeline stage shows up as a span in one CLI check.
        for expected in (
            "check",
            "translate",
            "translate.parse",
            "translate.semantics",
            "translate.abstraction",
            "translate.partition",
            "pipeline.realizability",
            "solve.component",
        ):
            assert expected in names, expected

    def test_tracer_uninstalled_after_cli_run(self, tmp_path):
        document = tmp_path / "doc.txt"
        document.write_text(DOC)
        cli_main(["check", str(document), "--trace-out", str(tmp_path / "t.json")])
        assert not tracing_active()


def run_serve(requests):
    out = io.StringIO()
    serve(io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n"), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestServeObservability:
    def test_traced_request_ships_spans_on_the_response(self):
        responses = run_serve(
            [
                {"op": "add", "id": "R1", "text": "The valve is opened."},
                {"op": "check", "timings": False, "trace": True, "rid": 7},
                {"op": "shutdown"},
            ]
        )
        check = responses[1]
        assert check["ok"]
        names = [record["name"] for record in check["trace"]]
        assert "serve.check" in names
        assert "session.check" in names
        root = next(r for r in check["trace"] if r["name"] == "serve.check")
        assert root["args"]["rid"] == 7

    def test_untraced_request_has_no_trace_field(self):
        responses = run_serve(
            [
                {"op": "add", "id": "R1", "text": "The valve is opened."},
                {"op": "check", "timings": False},
                {"op": "shutdown"},
            ]
        )
        assert "trace" not in responses[1]

    def test_normalize_response_strips_the_volatile_surfaces(self):
        def script(trace: bool):
            check = {"op": "check", "timings": False}
            if trace:
                check["trace"] = True
            return [
                {"op": "add", "id": "R1", "text": "The valve is opened."},
                check,
                {"op": "shutdown"},
            ]

        traced = run_serve(script(trace=True))[1]
        untraced = run_serve(script(trace=False))[1]
        assert traced["trace"]
        assert traced["delta"]["stage_seconds"]  # timing data was captured
        assert json.dumps(
            normalize_response(traced), sort_keys=True
        ) == json.dumps(normalize_response(untraced), sort_keys=True)

    def test_metrics_op(self):
        responses = run_serve(
            [
                {"op": "metrics"},
                {"op": "metrics", "full": False, "rid": 1},
                {"op": "shutdown"},
            ]
        )
        metrics = responses[0]["metrics"]
        for namespace in (
            "counters", "gauges", "histograms",
            "pipeline", "sat", "game", "pool", "supervision",
        ):
            assert namespace in metrics, namespace
        assert responses[1]["ok"] and responses[1]["rid"] == 1
        assert "pipeline" in responses[1]["metrics"]
        for data in responses[1]["metrics"]["histograms"].values():
            assert "buckets" not in data  # full=False: summaries only

    def test_session_check_reports_stage_seconds_when_traced(self):
        tracer = Tracer()
        set_process_tracer(tracer)
        try:
            session = SpecSession()
            session.add("R1", "If the feed is valid, the lamp is activated.")
            report = session.check()
        finally:
            set_process_tracer(None)
        assert "translate" in report.delta.stage_seconds
        assert report.delta.stage_seconds["translate"] > 0

    def test_session_check_stage_seconds_empty_untraced(self):
        session = SpecSession()
        session.add("R1", "The valve is opened.")
        assert session.check().delta.stage_seconds == {}


class TestPoolSpanStitching:
    def test_worker_spans_land_under_the_dispatching_task(self):
        from repro.service.pool import WorkerPool

        tracer = Tracer(name="pool-trace")
        set_process_tracer(tracer)
        try:
            with WorkerPool(shards=1) as pool:
                tasks = pool.check_documents([("doc", DOC)])
        finally:
            set_process_tracer(None)
        assert tasks[0].error is None
        records = tracer.records()
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        assert "pool.task" in by_name
        assert "worker.check" in by_name, sorted(by_name)
        (task_span,) = by_name["pool.task"]
        (worker_span,) = by_name["worker.check"]
        # The acceptance criterion: the worker's span is stitched under
        # the dispatching request's span, on the shard's own track.
        assert worker_span["parent"] == task_span["id"]
        assert worker_span["tid"] == "shard0"
        # The worker's nested pipeline spans rode along too.
        assert "translate" in by_name
        assert "pipeline.realizability" in by_name
        roots = [r for r in records if r["parent"] is None]
        assert {r["name"] for r in roots} == {"pool.task"}

    def test_stitched_trace_exports_clean(self, tmp_path):
        from repro.service.pool import WorkerPool

        tracer = Tracer()
        set_process_tracer(tracer)
        try:
            with WorkerPool(shards=2) as pool:
                pool.check_documents(
                    [("a", DOC), ("b", "The valve is opened.\n")]
                )
        finally:
            set_process_tracer(None)
        target = tmp_path / "pool_trace.json"
        tracer.export_chrome(target)
        summary = trace_schema.validate_file(target)
        assert summary["spans"] >= 4  # 2 pool.task + 2 worker.check minimum

    def test_untraced_pool_ships_no_spans(self):
        from repro.service.pool import WorkerPool

        with WorkerPool(shards=1) as pool:
            tasks = pool.check_documents([("doc", DOC)])
        assert tasks[0].spans == ()
