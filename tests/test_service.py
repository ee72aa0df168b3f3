"""Tests of the service subsystem: incremental sessions, batch checking
with backend-identical reports, the JSON-lines request loop (over stdio
and over TCP) and the machine-readable CLI output."""

from __future__ import annotations

import asyncio
import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import (
    BatchChecker,
    SpecCC,
    SpecSession,
    Verdict,
    WorkerPool,
)
from repro.__main__ import main as cli_main
from repro.service.reportjson import report_to_dict
from repro.service.server import AsyncSpecServer, _Server, serve


TWO_COMPONENTS = [
    ("R1", "If the sensor is active, the valve is opened."),
    ("R2", "If the button is pressed, the lamp is activated."),
]


class TestSpecSession:
    def test_first_check_analyzes_every_component(self):
        session = SpecSession()
        for identifier, sentence in TWO_COMPONENTS:
            session.add(identifier, sentence)
        report = session.check()
        assert report.consistent
        assert report.revision == 1
        assert len(report.delta.components) == 2
        assert len(report.delta.reanalyzed) == 2
        assert report.delta.reused == ()

    def test_single_edit_reanalyzes_only_touched_component(self):
        """The acceptance criterion: an edit re-analyzes only the components
        containing the edited requirement's variables, asserted through the
        component-cache hit/miss counters of ``cache_stats()``."""
        SpecCC.clear_caches()  # exact miss counts need a cold outcome cache
        session = SpecSession()
        for identifier, sentence in TWO_COMPONENTS:
            session.add(identifier, sentence)
        session.check()

        session.update("R2", "If the button is pressed, the lamp is not activated.")
        report = session.check()

        assert report.delta.edited == ("R2",)
        assert [c.identifiers for c in report.delta.reanalyzed] == [("R2",)]
        assert [c.identifiers for c in report.delta.reused] == [("R1",)]
        # The hard evidence: exactly one component analysis ran; the
        # untouched component came straight from the outcome cache.
        assert report.delta.cache_misses == 1
        assert report.delta.cache_hits >= 1

    def test_unedited_recheck_hits_cache_everywhere(self):
        session = SpecSession()
        for identifier, sentence in TWO_COMPONENTS:
            session.add(identifier, sentence)
        session.check()
        session.update("R1", TWO_COMPONENTS[0][1])  # same text: a no-op
        report = session.check()
        assert report.delta.edited == ()
        assert report.delta.cache_misses == 0
        assert len(report.delta.reused) == 2

    def test_add_and_remove_requirements(self):
        session = SpecSession()
        session.add("R1", "If the sensor is active, the valve is opened.")
        session.check()
        session.add("R2", "If the button is pressed, the lamp is activated.")
        report = session.check()
        assert len(report.delta.components) == 2
        assert [c.identifiers for c in report.delta.reanalyzed] == [("R2",)]

        session.remove("R2")
        report = session.check()
        assert len(report.delta.components) == 1
        assert report.delta.cache_misses == 0  # R1's outcome is still cached

        assert "R2" not in session
        assert session.identifiers() == ("R1",)

    def test_edit_errors(self):
        session = SpecSession()
        session.add("R1", "The valve is opened.")
        with pytest.raises(ValueError):
            session.add("R1", "The valve is opened.")
        with pytest.raises(KeyError):
            session.update("R9", "The valve is opened.")
        with pytest.raises(KeyError):
            session.remove("R9")

    def test_verdict_transition_is_reported(self, monkeypatch):
        from repro.core import pipeline

        monkeypatch.setattr(pipeline, "MAX_PARTITION_REPAIRS", 0)
        session = SpecSession()
        session.add("R1", "If the sensor is active, the valve is opened.")
        # Shares open_valve with R1, so both live in one component.
        session.add("R2", "If the button is pressed, the valve is opened.")
        first = session.check()
        assert first.verdict is Verdict.REALIZABLE

        session.update("R2", "If the sensor is active, the valve is not opened.")
        report = session.check()
        assert report.verdict is Verdict.UNREALIZABLE
        changed = report.delta.changed_verdicts()
        assert len(changed) == 1
        assert changed[0].previous_verdict is Verdict.REALIZABLE
        assert changed[0].verdict is Verdict.UNREALIZABLE

    def test_session_matches_one_shot_pipeline(self):
        session = SpecSession()
        for identifier, sentence in TWO_COMPONENTS:
            session.add(identifier, sentence)
        session.check()
        session.update("R1", "If the sensor is normal, the valve is opened.")
        session.add("R3", "If the alarm is issued, the door is not opened.")
        incremental = session.check()

        fresh = SpecCC().check(session.requirements())
        assert incremental.verdict is fresh.verdict
        assert report_to_dict(incremental.report, timings=False) == report_to_dict(
            fresh, timings=False
        )

    def test_translation_cache_stays_bounded(self, monkeypatch):
        """A long edit stream must not accumulate stale entries."""
        from repro import Translator
        from repro.translate import translator as translator_module

        monkeypatch.setattr(translator_module, "MAX_CACHE_ENTRIES", 8)
        translator = Translator()
        cache = translator.new_cache()
        words = ["available", "lost", "invalid", "enabled", "on", "off",
                 "high", "low", "busy", "idle", "full", "empty"]
        requirements = [
            ("R1", ""),
            ("R2", "If the door is open, the lamp is on in 4 seconds."),
            ("R3", ""),
            ("R4", "If the feed is valid, the alarm is sounded."),
        ]
        largest = {}
        for index in range(50):
            # Every level outgrows the bound: new sentences, theta sets,
            # final formulas of R2 and unit keys of the feed.
            requirements[0] = (
                "R1",
                f"If the sensor {index} is active, the valve is opened"
                f" in {index % 11 + 2} seconds.",
            )
            requirements[2] = (
                "R3",
                f"If the feed is {words[index % len(words)]}, the lamp is on.",
            )
            translator.translate(requirements, cache)
            for level, size in cache.stats().items():
                largest[level] = max(largest.get(level, 0), size)
        stats = cache.stats()
        assert set(largest.values()) == {8}, largest
        assert all(size <= 8 for size in stats.values()), stats
        # ... and the surviving entries still serve the current document.
        before = dict(stats)
        translator.translate(requirements, cache)
        assert cache.stats() == before

    def test_load_document(self):
        session = SpecSession()
        added = session.load_document(
            "If the sensor is active, the valve is opened.\n"
            "# a comment\n"
            "If the button is pressed, the lamp is activated.\n"
        )
        assert added == ("R1", "R2")
        assert session.check().consistent


class TestIncrementalSemantics:
    """Session invalidation through the analysis graph: Algorithm 1 runs
    only for sentences whose vocabulary an edit actually intersects,
    asserted via the semantics cache counters — with reports byte-identical
    to a fresh sequential check throughout."""

    #: Two antonym-coupled pairs over disjoint subjects plus one sentence
    #: with no adjective vocabulary at all.
    DOC = [
        ("R1", "If the pulse wave is available, the alarm is sounded."),
        ("R2", "If the pulse wave is unavailable, the alarm is not sounded."),
        ("R3", "If the feed is valid, the lamp is activated."),
        ("R4", "If the feed is invalid, the lamp is not activated."),
        ("R5", "If the button is pressed, the door is opened."),
    ]

    def fresh_bytes(self, session):
        report = SpecCC().check(session.requirements())
        return json.dumps(report_to_dict(report, timings=False), sort_keys=True)

    def session_bytes(self, session_report):
        return json.dumps(
            report_to_dict(session_report.report, timings=False), sort_keys=True
        )

    def make(self):
        session = SpecSession()
        for identifier, sentence in self.DOC:
            session.add(identifier, sentence)
        return session

    def test_first_check_analyses_all_vocabulary_sentences(self):
        session = self.make()
        report = session.check()
        delta = report.delta
        assert delta.semantics_components == 2  # pulse_wave, feed
        assert delta.semantics_reanalysed == ("R1", "R2", "R3", "R4")  # not R5
        assert report.consistent

    def test_edit_reanalyses_only_vocabulary_affected_sentences(self):
        """The acceptance criterion, in miniature: editing one sentence
        re-runs Algorithm 1 only for its own vocabulary component."""
        session = self.make()
        session.check()

        session.update("R3", "If the feed is lost, the lamp is activated.")
        report = session.check()
        delta = report.delta
        # Algorithm 1 re-ran for the feed component only: R3 and the
        # untouched-but-coupled R4 — never for the pulse-wave sentences.
        assert delta.semantics_reanalysed == ("R3", "R4")
        assert self.session_bytes(report) == self.fresh_bytes(session)

    def test_new_antonym_pair_invalidates_previously_unrelated_sentence(self):
        """An edit that *introduces* a pair under another sentence's subject
        must re-analyse that sentence (its propositions are rewritten
        through the new pair) while leaving the rest untouched."""
        session = SpecSession()
        session.add("R1", "If the signal is high, the alarm is sounded.")
        session.add("R2", "If the sensor is active, the lamp is activated.")
        first = session.check()
        # Single-dependent subjects form no analysis unit (Algorithm 1
        # line 3 skips them), so nothing ran yet.
        assert first.delta.semantics_components == 0
        assert first.delta.semantics_reanalysed == ()
        formula_before = str(first.report.translation.requirements[0].formula)

        # R3's vocabulary joins R1's subject and forms the (high, low) pair.
        session.add("R3", "If the signal is low, the door is opened.")
        report = session.check()
        delta = report.delta
        assert delta.semantics_reanalysed == ("R1", "R3")
        assert "R2" not in delta.semantics_reanalysed
        # The pair really changed R1's translation (single-pair
        # abbreviation renames the proposition), so the invalidation was
        # load-bearing, not cosmetic.
        formula_after = str(report.report.translation.requirements[0].formula)
        assert formula_before != formula_after
        assert self.session_bytes(report) == self.fresh_bytes(session)

    def test_remove_then_readd_reuses_everything(self):
        session = self.make()
        session.check()
        session.remove("R2")
        session.check()

        session.add("R2", dict(self.DOC)["R2"])
        report = session.check()
        delta = report.delta
        # The re-added sentence restores a component signature the session
        # graph has already seen: no Algorithm 1 replay, no realizability
        # analysis, and bytes identical to a fresh run.
        assert delta.semantics_reanalysed == ()
        assert delta.cache_misses == 0
        assert self.session_bytes(report) == self.fresh_bytes(session)

    def test_whitespace_edit_reanalyses_zero_components(self):
        session = self.make()
        before = session.check()
        spaced = dict(self.DOC)["R1"].replace(" is ", "  is ", 1)
        session.update("R1", spaced)
        report = session.check()
        delta = report.delta
        assert delta.edited == ("R1",)
        assert delta.semantics_reanalysed == ()
        assert delta.cache_misses == 0  # realizability untouched too
        assert all(not c.reanalyzed for c in delta.components)
        # Identical formulas and verdicts (only the echoed text differs).
        assert report.report.translation.formulas == (
            before.report.translation.formulas
        )
        assert self.session_bytes(report) == self.fresh_bytes(session)

    @pytest.mark.parametrize(
        "edited, reanalysed",
        [
            (7, ("A7", "B7")),
            # Algorithm 1 threads antonym states from one subject to the
            # next in sorted order, so an edit to that state (sensor 1)
            # also dirties its neighbour (sensor 10): the bound is 4 of 40.
            (1, ("A1", "B1", "A10", "B10")),
        ],
        ids=["sensor-7", "sensor-1"],
    )
    def test_forty_sentence_session_edit_is_vocabulary_local(
        self, edited, reanalysed
    ):
        """The acceptance criterion at full size: one edit in a
        40-sentence session replays Algorithm 1 for the edited one of the
        20 vocabulary components (plus at most one state-adjacent
        neighbour), with the report byte-identical to a fresh sequential
        check."""
        session = SpecSession()
        for group in range(1, 21):
            session.add(
                f"A{group}",
                f"If the sensor {group} is active, the device {group} is started.",
            )
            session.add(
                f"B{group}",
                f"If the sensor {group} is inactive, the device {group} is stopped.",
            )
        first = session.check()
        assert first.delta.semantics_components == 20
        assert len(first.delta.semantics_reanalysed) == 40

        session.update(
            f"A{edited}",
            f"If the sensor {edited} is normal, the device {edited} is started.",
        )
        report = session.check()
        delta = report.delta
        assert delta.semantics_reanalysed == reanalysed
        assert self.session_bytes(report) == self.fresh_bytes(session)

    def test_batch_and_pool_reports_match_session_after_semantic_edit(self):
        """One document through session, one-shot, and batch (thread and
        persistent-pool backends): identical canonical bytes."""
        from repro.service.pool import WorkerPool

        session = self.make()
        session.check()
        session.update("R1", "If the pulse wave is lost, the alarm is sounded.")
        expected = self.session_bytes(session.check())

        document = [(i, t) for i, t in session.requirements()]
        batch = BatchChecker(workers=2).check_documents([("d", document)])
        assert json.dumps(batch[0].data, sort_keys=True) == expected
        with WorkerPool(shards=2) as pool:
            task = pool.check_documents([("d", document)])[0]
        assert json.dumps(task.data, sort_keys=True) == expected


BATCH_DOCS = [
    ("consistent", "If the sensor is active, the valve is opened.\n"),
    (
        "repairable",
        "If the session is active, the page is displayed.\n"
        "If the notice is posted, the page is not displayed.\n",
    ),
    ("unsat", "The valve is opened.\nThe valve is not opened.\n"),
    (
        "two-components",
        "If the button is pressed, the lamp is activated.\n"
        "If the alarm is issued, the door is not opened.\n",
    ),
]


class TestBatchChecker:
    def _canonical(self, results):
        return [json.dumps(result.data, sort_keys=True) for result in results]

    def test_parallel_is_byte_identical_to_sequential(self):
        sequential = BatchChecker(workers=1).check_documents(BATCH_DOCS)
        parallel = BatchChecker(workers=4).check_documents(BATCH_DOCS)
        assert self._canonical(sequential) == self._canonical(parallel)
        assert [r.name for r in parallel] == [name for name, _ in BATCH_DOCS]
        assert [r.verdict for r in parallel] == [
            "realizable",
            "realizable",
            "unrealizable",
            "realizable",
        ]

    def test_thread_backend_checks_on_the_calling_thread(self, monkeypatch):
        """``workers`` does not fan the thread backend out: under the GIL a
        thread pool checked the Table I documents slower than one loop."""
        callers = []
        real = SpecCC.check_translated

        def recording(tool, translation):
            callers.append(threading.get_ident())
            return real(tool, translation)

        monkeypatch.setattr(SpecCC, "check_translated", recording)
        results = BatchChecker(workers=4).check_documents(BATCH_DOCS)
        assert len(results) == len(callers) == len(BATCH_DOCS)
        assert set(callers) == {threading.get_ident()}

    def test_requirement_pair_documents(self):
        docs = [("pairs", [("A1", "If the sensor is active, the valve is opened.")])]
        results = BatchChecker(workers=2).check_documents(docs)
        assert results[0].consistent
        assert results[0].data["requirements"][0]["identifier"] == "A1"

    def test_empty_batch(self):
        assert BatchChecker().check_documents([]) == []

    def test_bad_document_becomes_error_record_in_every_backend(self):
        """One unparsable document must not poison its batch: it yields an
        error record, siblings are judged normally, and the records are
        byte-identical across the sequential and thread backends."""
        docs = BATCH_DOCS[:2] + [("broken", [("R1", "")])] + BATCH_DOCS[2:]
        sequential = BatchChecker(workers=1).check_documents(docs)
        threaded = BatchChecker(workers=4).check_documents(docs)
        assert self._canonical(sequential) == self._canonical(threaded)
        broken = {r.name: r for r in threaded}["broken"]
        assert broken.verdict == "error"
        assert not broken.consistent
        assert broken.error["type"] == "StructuredEnglishError"
        good = [r for r in threaded if r.name != "broken"]
        assert [r.verdict for r in good] == [
            "realizable",
            "realizable",
            "unrealizable",
            "realizable",
        ]

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            BatchChecker(backend="fiber")
        with pytest.raises(ValueError):
            BatchChecker(workers=0)

    def test_process_backend_matches_thread_backend(self):
        docs = BATCH_DOCS[:2]
        thread = BatchChecker(workers=1).check_documents(docs)
        process = BatchChecker(workers=2, backend="process").check_documents(docs)
        assert self._canonical(thread) == self._canonical(process)


def _line(request) -> str:
    return json.dumps(request) if isinstance(request, dict) else request


def run_serve(lines, server=None):
    """Pipe *lines* (request dicts or raw strings) through the stdio
    transport at once; parsed responses in the order written."""
    out = io.StringIO()
    payload = "\n".join(_line(line) for line in lines)
    serve(io.StringIO(payload + "\n"), out, server=server)
    return [json.loads(line) for line in out.getvalue().splitlines()]


def run_tcp(lines, server=None):
    """Send *lines* over one TCP connection to an in-process gateway,
    each after the previous response arrived; parsed responses."""
    from repro.service.gateway import SpecGateway

    async def drive():
        gateway = SpecGateway(server if server is not None else AsyncSpecServer())
        await gateway.start()
        running = asyncio.ensure_future(gateway.run())
        reader, writer = await asyncio.open_connection(
            *gateway.address, limit=1 << 22
        )
        responses = []
        for line in lines:
            writer.write(_line(line).encode("utf-8") + b"\n")
            await writer.drain()
            reply = await asyncio.wait_for(reader.readline(), timeout=60.0)
            responses.append(json.loads(reply))
        writer.close()
        await gateway.shutdown()
        await asyncio.wait_for(running, timeout=10.0)
        return responses

    return asyncio.run(drive())


#: The two transports of the one request loop, for tests that must hold
#: on both.
TRANSPORTS = {"stdio": run_serve, "tcp": run_tcp}


class SlowCheckServer(_Server):
    """A session whose ``check`` takes one second and analyses nothing
    (tests install it as ``repro.service.server._Server``)."""

    def _op_check(self, request):
        time.sleep(1.0)
        return {}


class TestServe:
    def test_session_lifecycle_over_the_wire(self):
        SpecCC.clear_caches()  # the test asserts an exact miss count
        responses = run_serve(
            [
                {"op": "add", "id": "R1", "text": TWO_COMPONENTS[0][1]},
                {"op": "add", "id": "R2", "text": TWO_COMPONENTS[1][1]},
                {"op": "check", "timings": False},
                {"op": "update", "id": "R2", "text": "If the button is pressed, the lamp is not activated."},
                {"op": "check", "timings": False},
                {"op": "stats"},
                {"op": "shutdown"},
            ]
        )
        assert all(response["ok"] for response in responses)
        first, second = responses[2], responses[4]
        assert first["report"]["verdict"] == "realizable"
        assert first["revision"] == 1
        assert second["delta"]["edited"] == ["R2"]
        assert second["delta"]["reanalyzed"] == 1
        assert second["delta"]["reused"] == 1
        assert second["delta"]["cache_misses"] == 1
        stats = responses[5]
        assert stats["cache"]["component_cache"]["hits"] >= 1
        assert stats["size"] == 2

    def test_batch_op(self):
        responses = run_serve(
            [
                {
                    "op": "batch",
                    "workers": 2,
                    "documents": [
                        {"name": "a", "text": BATCH_DOCS[0][1]},
                        {"name": "b", "text": BATCH_DOCS[2][1]},
                    ],
                },
            ]
        )
        results = responses[0]["results"]
        assert [entry["name"] for entry in results] == ["a", "b"]
        assert results[0]["report"]["consistent"] is True
        assert results[1]["report"]["consistent"] is False

    def test_errors_do_not_kill_the_loop(self):
        responses = run_serve(
            [
                {"op": "remove", "id": "R9"},
                {"op": "frobnicate"},
                {"op": "add", "id": "R1"},  # missing text
                {"op": "add", "id": "R1", "text": "The valve is opened."},
            ]
        )
        assert [response["ok"] for response in responses] == [
            False,
            False,
            False,
            True,
        ]

    def test_malformed_json_line(self):
        out = io.StringIO()
        serve(io.StringIO("this is not json\n[1,2]\n"), out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [response["ok"] for response in responses] == [False, False]

    def test_reset(self):
        responses = run_serve(
            [
                {"op": "add", "id": "R1", "text": "The valve is opened."},
                {"op": "reset"},
                {"op": "stats"},
            ]
        )
        assert responses[1]["size"] == 0
        assert responses[2]["size"] == 0

    def test_stats_surface_pool_counters(self):
        responses = run_serve([{"op": "stats"}])
        assert "pools" in responses[0]  # pool.stats() rows, [] before use
        # The op speaks the shared stats format: cache layers + engine work.
        assert "component_cache" in responses[0]["cache"]
        assert "synthesis" in responses[0]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_stats_reports_the_requesting_sessions_translation_cache(
        self, transport
    ):
        """The ``stats`` op counts the translation cache the requesting
        session translates through, not the daemon tool's unused one."""
        responses = TRANSPORTS[transport](
            [
                {"op": "add", "id": "R1", "text": TWO_COMPONENTS[0][1]},
                {"op": "check", "timings": False},
                {"op": "stats"},
                {"op": "stats", "session": "idle"},
            ]
        )
        assert all(response["ok"] for response in responses)
        checked, idle = responses[2], responses[3]
        assert checked["size"] == 1
        assert checked["translation_cache"] == {
            "sentences": 1,
            "raw_formulas": 1,
            "formulas": 1,
            "units": 0,
            "solutions": 1,
        }
        assert "translation_graph" not in checked
        assert all(size == 0 for size in idle["translation_cache"].values())

    def test_check_reports_semantics_delta(self):
        responses = run_serve(
            [
                {"op": "add", "id": "R1", "text": "If the feed is valid, the lamp is activated."},
                {"op": "add", "id": "R2", "text": "If the feed is invalid, the lamp is not activated."},
                {"op": "check", "timings": False},
                {"op": "update", "id": "R1", "text": "If the feed is valid, the lamp is  activated."},
                {"op": "check", "timings": False},
                {"op": "shutdown"},
            ]
        )
        first, second = responses[2], responses[4]
        assert first["delta"]["semantics_reanalysed"] == ["R1", "R2"]
        assert first["delta"]["semantics_components"] == 1
        # Whitespace-only edit: Algorithm 1 re-ran for nothing.
        assert second["delta"]["semantics_reanalysed"] == []


def normalize(response: dict) -> str:
    """Canonical response bytes minus the protocol's volatile fields
    (one shared normalize_response in server.py, so this cannot drift
    from the benchmark's identical comparison)."""
    from repro.service.server import normalize_response

    return json.dumps(normalize_response(response), sort_keys=True)


def client_script(client: int):
    """A small edit/check session over a client-private variable pool."""
    return [
        {
            "op": "add",
            "id": "R1",
            "text": f"If the sensor {client} is active, the device {client} is started.",
        },
        {"op": "check", "timings": False},
        {
            "op": "update",
            "id": "R1",
            "text": f"If the sensor {client} is normal, the device {client} is started.",
        },
        {"op": "check", "timings": False},
    ]


class TestServeAsync:
    """The request core: sessions, correlation, concurrency, bounds."""

    def test_session_lifecycle_single_client(self):
        responses = run_serve(
            [
                {"op": "add", "id": "R1", "text": TWO_COMPONENTS[0][1]},
                {"op": "check", "timings": False},
                {"op": "shutdown"},
            ]
        )
        assert all(response["ok"] for response in responses)
        assert all(response["session"] == "default" for response in responses)
        assert responses[1]["report"]["verdict"] == "realizable"
        assert responses[2]["op"] == "shutdown"

    def test_rid_echoed_for_correlation(self):
        responses = run_serve(
            [{"op": "add", "id": "R1", "text": "The valve is opened.", "rid": 42}]
        )
        assert responses[0]["rid"] == 42

    def test_malformed_input_does_not_kill_the_async_daemon(self):
        """Bad JSON, a non-object line, a missing op and a missing field
        each produce an error response and the loop keeps serving."""
        responses = run_serve(
            [
                "this is not json",
                "[1, 2]",
                {"id": "R1", "text": "The valve is opened."},  # no op
                {"op": "frobnicate"},
                {"op": "add", "id": "R1"},  # missing text
                {"op": "add", "id": "R1", "text": "The valve is opened."},
            ]
        )
        assert [response["ok"] for response in responses] == [
            False,
            False,
            False,
            False,
            False,
            True,
        ]
        assert "malformed JSON" in responses[0]["error"]

    def test_sessions_are_isolated(self):
        responses = run_serve(
            [
                {"op": "add", "id": "R1", "text": "The valve is opened.", "session": "a"},
                {"op": "add", "id": "R1", "text": "The door is opened.", "session": "b"},
                {"op": "stats", "session": "a"},
            ]
        )
        assert all(response["ok"] for response in responses)
        stats = responses[-1]
        assert stats["size"] == 1  # session a sees only its own requirement
        assert stats["sessions"] == 2

    def test_eight_concurrent_clients_match_sequential_serve(self):
        """>= 8 concurrent clients multiplexed over one stream, per-session
        responses identical to each session running alone."""
        clients = 8
        scripts = {f"c{index}": client_script(index) for index in range(clients)}
        interleaved = []
        for step in range(max(len(s) for s in scripts.values())):
            for name, script in scripts.items():
                if step < len(script):
                    interleaved.append(
                        {**script[step], "session": name, "rid": step}
                    )
        interleaved.append({"op": "shutdown"})

        responses = run_serve(interleaved)
        by_session = {name: [] for name in scripts}
        for response in responses:
            if response.get("session") in by_session:
                by_session[response["session"]].append(response)
        for name, script in scripts.items():
            got = sorted(by_session[name], key=lambda r: r["rid"])
            assert len(got) == len(script), name
            reference = run_serve(script)
            assert [normalize(r) for r in got] == [
                normalize(r) for r in reference
            ], name

    def test_concurrent_handle_requests_keep_per_session_order(self):
        """Direct API: fire all clients' requests through asyncio.gather;
        per-session revisions must still be strictly sequential."""

        async def drive():
            server = AsyncSpecServer()
            tasks = []
            for client in range(8):
                for request in client_script(client):
                    tasks.append(
                        server.handle_request({**request, "session": f"c{client}"})
                    )
            return await asyncio.gather(*tasks)

        responses = asyncio.run(drive())
        assert all(response["ok"] for response in responses)
        for client in range(8):
            revisions = [
                response["revision"]
                for response in responses
                if response["session"] == f"c{client}" and "revision" in response
            ]
            assert revisions == [1, 2]

    def test_batch_op_process_backend_uses_worker_pool(self):
        from repro.service.pool import shared_pool, shutdown_shared_pools

        try:
            responses = run_serve(
                [
                    {
                        "op": "batch",
                        "backend": "process",
                        "workers": 2,
                        "documents": [
                            {"name": "a", "text": BATCH_DOCS[0][1]},
                            {"name": "b", "text": BATCH_DOCS[2][1]},
                        ],
                    },
                ]
            )
            results = responses[0]["results"]
            assert [entry["name"] for entry in results] == ["a", "b"]
            assert results[0]["report"]["consistent"] is True
            assert results[1]["report"]["consistent"] is False
            # The batch was routed through the shared pool.
            assert shared_pool(shards=2).stats()["tasks"] >= 2
        finally:
            shutdown_shared_pools()

    def test_stats_and_metrics_ops_report_the_process_pool_row(self):
        """After a process-backend batch the ``stats`` and ``metrics`` ops
        surface the same pool row, with its task and supervision counts
        and no ``remote`` member: the local pool is the only transport."""
        from repro.service.pool import shutdown_shared_pools

        shutdown_shared_pools()
        try:
            batch, stats, metrics = run_serve(
                [
                    {
                        "op": "batch",
                        "backend": "process",
                        "workers": 2,
                        "documents": [
                            {"name": "a", "text": BATCH_DOCS[0][1]},
                            {"name": "b", "text": BATCH_DOCS[2][1]},
                        ],
                    },
                    {"op": "stats"},
                    {"op": "metrics", "full": False},
                ]
            )
        finally:
            shutdown_shared_pools()
        assert batch["ok"] is True
        pool = metrics["metrics"]["pool"]
        assert (pool["pools"], pool["tasks"], pool["failures"]) == (1, 2, 0)
        (stats_row,) = stats["pools"]
        (metrics_row,) = pool["rows"]
        for row in (stats_row, metrics_row):
            assert "remote" not in row
            assert (row["shards"], row["tasks"]) == (2, 2)
            assert row["supervision"]["attempts"] == 2
            assert row["supervision"]["worker_deaths"] == 0

    def test_invalid_op_does_not_allocate_a_session(self):
        """Invalid traffic must not grow daemon state: the op is validated
        before any per-session allocation happens."""

        async def drive():
            server = AsyncSpecServer()
            bad = await server.handle_request(
                {"op": "frobnicate", "session": "ghost"}
            )
            missing = await server.handle_request({"session": "ghost2"})
            good = await server.handle_request({"op": "stats", "session": "real"})
            return server.session_names, bad, missing, good

        names, bad, missing, good = asyncio.run(drive())
        assert not bad["ok"] and not missing["ok"]
        assert good["ok"]
        assert names == ("real",)

    def test_session_count_is_bounded(self):
        async def drive():
            server = AsyncSpecServer(max_sessions=2)
            return [
                await server.handle_request({"op": "stats", "session": name})
                for name in ("a", "b", "c")
            ]

        responses = asyncio.run(drive())
        assert [response["ok"] for response in responses] == [True, True, False]
        assert "too many sessions" in responses[2]["error"]

    def test_batch_workers_clamped(self, monkeypatch):
        """A client-chosen worker count must not be able to spawn pools
        (and their persistent processes) without bound."""
        import repro.service.server as server_module

        captured = {}
        real = server_module.BatchChecker

        def spy(*args, **kwargs):
            captured.update(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(server_module, "BatchChecker", spy)
        responses = run_serve(
            [
                {
                    "op": "batch",
                    "workers": 999,
                    "documents": [{"name": "a", "text": "The valve is opened."}],
                }
            ]
        )
        assert responses[0]["ok"]
        assert captured["workers"] == server_module._Server.MAX_BATCH_WORKERS
        assert captured["backend"] == "thread"  # the stdio transport's default

    @pytest.mark.parametrize("backend", ["process-fresh", "remote"])
    def test_batch_op_rejects_unknown_backend(self, backend):
        """The cold-process reference backend and the remote worker tier
        are gone: a client can reach neither through a batch request."""
        responses = run_serve(
            [
                {
                    "op": "batch",
                    "backend": backend,
                    "documents": [{"name": "a", "text": "The valve is opened."}],
                }
            ]
        )
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "bad_request"
        assert "unknown backend" in responses[0]["error"]

    def test_shutdown_drains_pending_requests(self):
        script = [
            {"op": "add", "id": "R1", "text": TWO_COMPONENTS[0][1], "session": "a"},
            {"op": "check", "timings": False, "session": "a"},
            {"op": "shutdown"},
            {"op": "add", "id": "R2", "text": "ignored", "session": "a"},
        ]
        responses = run_serve(script)
        # Everything before the shutdown is answered; nothing after is read.
        assert len(responses) == 3
        assert [response["op"] for response in responses[:3]] == [
            "add",
            "check",
            "shutdown",
        ]


#: A request script recorded through the sequential serve loop this
#: request loop replaced (``max_request_bytes`` 1024), one line per
#: request: the raw request line and its normalized response.
TRANSCRIPT = Path(__file__).resolve().parent / "data" / "serve_transcript.jsonl"
TRANSCRIPT_MAX_BYTES = 1024


def _golden():
    entries = [json.loads(line) for line in TRANSCRIPT.read_text().splitlines()]
    return [entry["request"] for entry in entries], [
        json.dumps(entry["response"], sort_keys=True) for entry in entries
    ]


class TestGoldenTranscript:
    """Adds, updates, checks, bad JSON, an unknown op, a missing field, an
    oversized line, a thread batch, reset and shutdown: both transports
    reproduce the recorded responses byte for byte."""

    def test_stdio_serve_reproduces_transcript(self):
        """The whole script piped into ``python -m repro serve``."""
        requests, golden = _golden()
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--max-request-bytes", str(TRANSCRIPT_MAX_BYTES),
            ],
            input="\n".join(requests) + "\n",
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        got = [normalize(json.loads(line)) for line in result.stdout.splitlines()]
        assert got == golden

    def test_tcp_connection_reproduces_transcript(self):
        requests, golden = _golden()
        responses = run_tcp(
            requests, AsyncSpecServer(max_request_bytes=TRANSCRIPT_MAX_BYTES)
        )
        assert [normalize(response) for response in responses] == golden


class TestServeHardening:
    """The fault-tolerant serving tier at the protocol surface: health
    ops, structured error codes, timeouts, oversized guards and
    backpressure — never a dropped connection."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_ping(self, transport):
        responses = TRANSPORTS[transport](
            [
                {"op": "ping"},
                {"op": "add", "id": "R1", "text": "The valve is opened.", "session": "a"},
                {"op": "health", "session": "a"},
            ]
        )
        # Different sessions: the add may overtake the offloaded ping.
        ping, health = (
            next(r for r in responses if r["op"] == op) for op in ("ping", "health")
        )
        for response in (ping, health):
            assert response["ok"] is True
            assert response["status"] == "ok"
            assert response["uptime_seconds"] >= 0
            supervision = response["supervision"]
            assert supervision["degraded"] is False
            for key in ("restarts", "retries", "timeouts", "degraded_tasks"):
                assert supervision[key] == 0
        assert ping["session_stats"]["size"] == 0
        assert health["sessions"] == 2
        assert health["session_stats"]["size"] == 1
        assert health["session_stats"]["pending_edits"] == 1

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_error_codes(self, transport):
        responses = TRANSPORTS[transport](
            [
                "this is not json",
                {"op": "frobnicate"},
                {"op": "add", "id": "R1"},
            ]
        )
        assert [r["ok"] for r in responses] == [False, False, False]
        assert [r["code"] for r in responses] == [
            "bad_json",
            "bad_request",
            "bad_request",
        ]
        assert "malformed JSON" in responses[0]["error"]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_oversized_request(self, transport):
        big = json.dumps({"op": "add", "id": "R1", "text": "x" * 4096})
        responses = TRANSPORTS[transport](
            [big, {"op": "ping"}], AsyncSpecServer(max_request_bytes=1024)
        )
        # The oversized line gets a structured error; the loop lives on.
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "oversized"
        assert responses[1]["ok"] is True

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_request_timeout(self, transport, monkeypatch):
        import time as time_module

        import repro.service.server as server_module

        class SlowServer(server_module._Server):
            def _op_check(self, request):  # offloaded: runs on a thread
                time_module.sleep(0.8)
                return {}

        monkeypatch.setattr(server_module, "_Server", SlowServer)
        responses = TRANSPORTS[transport](
            [{"op": "check"}, {"op": "add", "id": "R1", "text": "The valve is opened."}],
            AsyncSpecServer(request_timeout=0.2),
        )
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "timeout"
        # The session still serves after a timeout: the next request
        # waited for the abandoned handler, then ran.
        assert responses[1]["ok"] is True

    def test_backpressure_pauses_reading(self, monkeypatch):
        """A stream at ``max_queue`` in-flight requests stops reading
        instead of refusing: 100 piped edits queued behind a 1 s check
        are all answered, in order, and none is 'overloaded'."""
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "_Server", SlowCheckServer)
        script = [{"op": "check", "rid": 0}] + [
            {"op": "add", "id": f"R{rid}", "text": "The valve is opened.", "rid": rid}
            for rid in range(1, 101)
        ]
        responses = run_serve(script)
        assert [response["rid"] for response in responses] == list(range(101))
        assert all(response["ok"] for response in responses), [
            response for response in responses if not response["ok"]
        ][:1]
        assert responses[-1]["size"] == 100

    def test_batch_op_isolates_document_errors(self):
        responses = run_serve(
            [
                {
                    "op": "batch",
                    "documents": [
                        {"name": "good", "text": BATCH_DOCS[0][1]},
                        {"name": "bad", "requirements": [["R1", ""]]},
                        {"name": "also-good", "text": BATCH_DOCS[2][1]},
                    ],
                }
            ]
        )
        assert responses[0]["ok"] is True
        results = responses[0]["results"]
        assert [entry["name"] for entry in results] == [
            "good",
            "bad",
            "also-good",
        ]
        assert results[0]["report"]["consistent"] is True
        assert results[1]["report"]["verdict"] == "error"
        assert results[1]["report"]["error"]["type"] == "StructuredEnglishError"
        assert results[2]["report"]["verdict"] == "unrealizable"

    def test_session_stats_shape(self):
        session = SpecSession()
        session.add("R1", "The valve is opened.")
        stats = session.stats()
        assert stats["size"] == 1
        assert stats["revision"] == 0
        assert stats["pending_edits"] == 1
        assert stats["age_seconds"] >= 0
        session.check()
        assert session.stats()["pending_edits"] == 0
        assert session.stats()["revision"] == 1

    # ------------------------------------------------- protocol bugfixes
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_multibyte_oversized(self, transport):
        """`max_request_bytes` bounds *bytes*, not characters: a line
        whose character count is under the bound but whose UTF-8
        encoding is over it must be rejected as oversized."""
        big = json.dumps(
            {"op": "add", "id": "R1", "text": "é" * 700}, ensure_ascii=False
        )
        assert len(big) <= 1024 < len(big.encode("utf-8"))
        responses = TRANSPORTS[transport](
            [big, {"op": "ping"}], AsyncSpecServer(max_request_bytes=1024)
        )
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "oversized"
        assert responses[1]["ok"] is True

    def test_ascii_lines_under_bound_still_pass(self):
        """The bound excludes the line terminator: a line of exactly
        ``max_request_bytes`` bytes goes through, one byte more does not."""
        request = json.dumps({"op": "add", "id": "R1", "text": "x" * 200})
        responses = run_serve(
            [request, request + " "],
            AsyncSpecServer(max_request_bytes=len(request)),
        )
        assert responses[0]["ok"] is True
        assert responses[1]["code"] == "oversized"

    def test_timeout_does_not_interleave_session_requests(self):
        """A timed-out request abandons the *response*, not the handler:
        the session's next request must queue until the abandoned
        handler thread actually finishes (pre-fix, the session lock was
        released on timeout and the next request interleaved with the
        still-running handler, violating strictly-sequential-per-session
        semantics)."""
        import threading

        from repro.service.server import _Server

        order = []
        release = threading.Event()

        class SlowServer(_Server):
            def _op_check(self, request):  # offloaded: runs on a thread
                order.append("stall:start")
                release.wait(5.0)
                order.append("stall:end")
                return {}

            def _op_add(self, request):  # inline: the probing request
                order.append("probe")
                return {"size": 0}

        async def drive():
            server = AsyncSpecServer(request_timeout=0.2)
            server._sessions["default"] = SlowServer(server)
            server._locks["default"] = asyncio.Lock()
            first = await server.handle_request({"op": "check"})
            assert first["code"] == "timeout"
            # The timed-out handler is still blocked on its thread.
            # Issue the session's next request, give it every chance to
            # interleave, and only then let the handler finish.
            probe = asyncio.ensure_future(
                server.handle_request({"op": "add", "id": "R1", "text": "x"})
            )
            await asyncio.sleep(0.3)
            interleaved = "probe" in order
            release.set()
            second = await probe
            return first, second, interleaved

        first, second, interleaved = asyncio.run(drive())
        assert first["ok"] is False
        assert not interleaved, "request ran while the timed-out handler was live"
        assert second["ok"] is True
        assert order == ["stall:start", "stall:end", "probe"]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_batch_malformed_entry_is_bad_request(self, transport):
        """Non-object batch entries, and requirements that are not
        ``[id, text]`` pairs, are the client's fault: they must be
        classified 'bad_request', not 'internal' or a checker error."""
        responses = TRANSPORTS[transport](
            [
                {"op": "batch", "documents": "not a list"},
                {"op": "batch", "documents": [["R1", "The valve is opened."]]},
                {
                    "op": "batch",
                    "documents": [
                        {"name": "ok", "text": "The valve is opened."},
                        "nope",
                    ],
                },
                {"op": "batch", "documents": [42]},
                {"op": "batch", "documents": [{"requirements": ["R1", "ab"]}]},
                {
                    "op": "batch",
                    "documents": [
                        {
                            "requirements": {
                                "R1": "If the sensor is active, the valve is opened."
                            }
                        }
                    ],
                },
            ]
        )
        assert [r["ok"] for r in responses] == [False] * 6
        assert [r["code"] for r in responses] == ["bad_request"] * 6
        assert "documents[1]" in responses[2]["error"]
        assert "documents[0].requirements" in responses[4]["error"]
        assert "documents[0].requirements" in responses[5]["error"]


class TestCLI:
    def test_check_json(self, tmp_path, capsys):
        document = tmp_path / "spec.txt"
        document.write_text("If the sensor is active, the valve is opened.\n")
        code = cli_main(["check", str(document), "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "realizable"
        assert data["partition"] == {
            "inputs": ["active_sensor"],
            "outputs": ["open_valve"],
        }
        assert data["cache"]["component_cache"]["misses"] >= 1

    def test_check_json_inconsistent_exit_code(self, tmp_path, capsys):
        document = tmp_path / "spec.txt"
        document.write_text("The valve is opened.\nThe valve is not opened.\n")
        code = cli_main(["check", str(document), "--json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "unrealizable"
        assert data["culprits"] == ["R1", "R2"]

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize(
        "text, error_type",
        [(None, "FileNotFoundError"), ("The valve.\n", "StructuredEnglishError")],
        ids=["missing-file", "unparseable"],
    )
    def test_check_bad_input_exits_2(
        self, tmp_path, capsys, text, error_type, as_json
    ):
        """Unreadable input is a usage error (2), not a traceback and not
        the "inconsistent" code (1); --json still emits a record."""
        document = tmp_path / "spec.txt"
        if text is not None:
            document.write_text(text)
        argv = ["check", str(document)] + (["--json"] if as_json else [])
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro check: ")
        if as_json:
            data = json.loads(captured.out)
            assert data["verdict"] == "error"
            assert data["error"]["type"] == error_type
        else:
            assert captured.out == ""

    def test_batch_directory(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text(BATCH_DOCS[0][1])
        (tmp_path / "b.txt").write_text(BATCH_DOCS[2][1])
        out_file = tmp_path / "results.jsonl"
        code = cli_main(
            ["batch", str(tmp_path), "--workers", "2", "--output", str(out_file)]
        )
        assert code == 1  # one document is inconsistent
        lines = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert [entry["name"] for entry in lines] == ["a.txt", "b.txt"]
        assert lines[0]["report"]["consistent"] is True
        assert lines[1]["report"]["consistent"] is False

    def test_check_json_stats_flag(self, tmp_path, capsys):
        document = tmp_path / "spec.txt"
        document.write_text(
            "If the feed is valid, the lamp is activated.\n"
            "If the feed is invalid, the lamp is not activated.\n"
        )
        code = cli_main(["check", str(document), "--json", "--stats"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        stats = data["stats"]
        assert stats["cache"]["component_cache"]["misses"] >= 1
        assert "sat_propagations" in stats["synthesis"]

    def test_check_textual_stats_flag(self, tmp_path, capsys):
        document = tmp_path / "spec.txt"
        document.write_text("The valve is opened.\n")
        assert cli_main(["check", str(document), "--stats"]) == 0
        assert '"component_cache"' in capsys.readouterr().out

    def test_batch_empty_directory(self, tmp_path):
        assert cli_main(["batch", str(tmp_path)]) == 2

    def test_batch_undecodable_document_exits_2(self, tmp_path, capsys):
        """Exit 1 means "inconsistent"; an unreadable document is a usage
        error, reported without a traceback."""
        (tmp_path / "a.txt").write_text("The valve is opened.\n")
        (tmp_path / "b.txt").write_bytes(b"\xff\xfeThe valve is opened.\n")
        assert cli_main(["batch", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro batch: b.txt: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_batch_invalid_workers_exits_2(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("The valve is opened.\n")
        assert cli_main(["batch", str(tmp_path), "--workers", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro batch: workers must be >= 1\n"
        assert captured.out == ""

    def test_batch_unreadable_document_exits_2(self, tmp_path, capsys):
        """Any ``*.txt`` that cannot be read (here a directory, an
        ``OSError``) is a usage error as well."""
        (tmp_path / "a.txt").write_text("The valve is opened.\n")
        (tmp_path / "c.txt").mkdir()
        assert cli_main(["batch", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro batch: c.txt: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_batch_process_backend_prints_thread_backend_bytes(
        self, tmp_path, capsys
    ):
        """``--backend process`` is where a batch gets CPU parallelism;
        its JSON lines and exit code match the in-process backend's."""
        from repro.service.pool import shutdown_shared_pools

        for name, text in BATCH_DOCS:
            (tmp_path / f"{name}.txt").write_text(text)
        assert cli_main(["batch", str(tmp_path)]) == 1  # "unsat" is inconsistent
        thread_out = capsys.readouterr().out
        try:
            code = cli_main(
                ["batch", str(tmp_path), "--backend", "process", "--workers", "2"]
            )
        finally:
            shutdown_shared_pools()
        assert code == 1
        assert capsys.readouterr().out == thread_out
        names = [json.loads(line)["name"] for line in thread_out.splitlines()]
        assert names == sorted(f"{name}.txt" for name, _ in BATCH_DOCS)

    @pytest.mark.parametrize(
        "argv, removed",
        [
            (["serve", "--async"], "--async"),
            (
                ["serve", "--tcp", "127.0.0.1:0", "--workers-bind", "127.0.0.1:0"],
                "--workers-bind",
            ),
            (["serve", "--min-workers", "2"], "--min-workers"),
            (["worker", "--connect", "127.0.0.1:1"], "'worker'"),
            (["batch", ".", "--backend", "remote"], "'remote'"),
            (["batch", ".", "--bind", "127.0.0.1:0"], "--bind"),
        ],
        ids=["async", "workers-bind", "min-workers", "worker", "remote", "bind"],
    )
    def test_serve_rejects_async_flag(self, argv, removed, capsys):
        """Removed surface is rejected at parse time, not half-alive: one
        request loop (no ``--async``) and one pool transport (no remote
        worker tier)."""
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert removed in capsys.readouterr().err

    #: ``(argv, flag)``: option values that must fail at parse time.
    MALFORMED_OPTIONS = [
        (["check", "doc.txt", "--error-bound", "-1"], "--error-bound"),
        (["batch", ".", "--error-bound", "-1"], "--error-bound"),
        (["serve", "--error-bound", "-1"], "--error-bound"),
        (["serve", "--tcp", "nonsense"], "--tcp"),
        (["serve", "--tcp", "127.0.0.1:99999"], "--tcp"),
        (
            ["serve", "--journal", "j", "--journal-fsync", "sometimes"],
            "--journal-fsync",
        ),
        (["serve", "--journal-fsync", "interval:0"], "--journal-fsync"),
        (["serve", "--request-timeout", "-1"], "--request-timeout"),
        (["serve", "--max-request-bytes", "0"], "--max-request-bytes"),
        (["serve", "--max-queue", "0"], "--max-queue"),
        (["serve", "--max-connections", "0"], "--max-connections"),
        (["serve", "--rate-limit", "0"], "--rate-limit"),
        (["serve", "--rate-burst", "-1"], "--rate-burst"),
        (
            ["serve", "--journal-compact-every", "-1"],
            "--journal-compact-every",
        ),
        (
            ["batch", ".", "--backend", "process", "--task-timeout", "-1"],
            "--task-timeout",
        ),
        (["batch", ".", "--max-attempts", "0"], "--max-attempts"),
        (["check", "doc.txt", "--slow-span-ms", "-1"], "--slow-span-ms"),
    ]

    @pytest.mark.parametrize(
        "argv, flag",
        MALFORMED_OPTIONS,
        ids=[" ".join(argv) for argv, _ in MALFORMED_OPTIONS],
    )
    def test_malformed_option_is_a_usage_error(self, argv, flag, capsys):
        """Out-of-range values fail at parse time with exit 2, not as a
        traceback, the "inconsistent" exit code or a broken service."""
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: " in err
        assert "Traceback" not in err

    def test_serve_accepts_tcp_flags(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--tcp", "127.0.0.1:0",
                "--rate-limit", "5",
                "--rate-burst", "10",
                "--max-connections", "2",
                "--no-client-shutdown",
            ]
        )
        assert args.tcp == ("127.0.0.1", 0)
        assert args.rate_limit == 5.0
        assert args.rate_burst == 10.0
        assert args.max_connections == 2
        assert args.no_client_shutdown is True
        assert build_parser().parse_args(["serve"]).tcp is None

    def test_json_rejects_textual_flags(self, tmp_path, capsys):
        document = tmp_path / "spec.txt"
        document.write_text("The valve is opened.\n")
        with pytest.raises(SystemExit):
            cli_main(["check", str(document), "--json", "--ltl"])
        assert "--json cannot be combined" in capsys.readouterr().err


class TestOneTransport:
    """The local process pool is the only pool transport: the remote
    worker tier's parameters, backend and module are rejected, not
    half-alive."""

    @pytest.mark.parametrize(
        "construct",
        [
            lambda: WorkerPool(shards=1, remote=None),
            lambda: BatchChecker(remote=None),
        ],
        ids=["WorkerPool", "BatchChecker"],
    )
    def test_remote_parameter_is_rejected(self, construct):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            construct()

    def test_batch_checker_has_two_backends(self):
        assert BatchChecker.BACKENDS == ("thread", "process")
        with pytest.raises(ValueError, match="unknown backend 'remote'"):
            BatchChecker(backend="remote")

    def test_remote_module_is_gone_and_exports_resolve(self):
        import importlib

        import repro.service

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.service.remote")
        # An export left behind for a deleted name would break ``import *``.
        missing = [
            name for name in repro.service.__all__
            if not hasattr(repro.service, name)
        ]
        assert missing == []


class TestCacheStats:
    def test_stats_shape_and_movement(self):
        stats = SpecCC.cache_stats()
        for key in ("size", "capacity", "hits", "misses"):
            assert key in stats["component_cache"]
        assert "size" in stats["automaton_cache"]
        assert stats["interned_nodes"] >= 0

        before = SpecCC.cache_stats()["component_cache"]
        tool = SpecCC()
        tool.check([("R1", "If the sensor is active, the valve is opened.")])
        tool.check([("R1", "If the sensor is active, the valve is opened.")])
        after = SpecCC.cache_stats()["component_cache"]
        assert after["hits"] > before["hits"]  # second run served from cache

    def test_clear_translation_cache_drops_the_tool_cache(self):
        tool = SpecCC()
        tool.check([("R1", "If the sensor is active, the valve is opened.")])
        assert tool.translator.cache().stats()["sentences"] == 1
        tool.clear_translation_cache()
        assert all(size == 0 for size in tool.translator.cache().stats().values())

    def test_one_shot_tool_is_incremental_across_checks(self, monkeypatch):
        """SpecCC.check rides the translator's own cache: repeating a
        document re-parses nothing."""
        from repro.translate import translator as translator_module

        parsed = []
        real = translator_module.parse_sentence
        monkeypatch.setattr(
            translator_module,
            "parse_sentence",
            lambda text: parsed.append(text) or real(text),
        )
        tool = SpecCC()
        requirements = [("R1", "If the sensor is active, the valve is opened.")]
        tool.check(requirements)
        sizes = tool.translator.cache().stats()
        assert sizes["sentences"] == 1 and len(parsed) == 1
        tool.check(requirements)
        assert len(parsed) == 1
        assert tool.translator.cache().stats() == sizes
