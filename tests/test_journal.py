"""Tests of durable sessions (service/journal.py) and recovery wiring.

The contract under test, end to end: every session mutation is
write-ahead journaled before it is acknowledged; replaying any journaled
prefix through a fresh session — including prefixes ending in a
fault-injected torn tail, which must be CRC-detected and truncated,
never silently replayed — reproduces byte-identical reports to the
uninterrupted run; and a client that retries its last edit after
``attach`` observes exactly-once application (the rid watermark), through
the request core, over stdio, and across real process crashes.
"""

from __future__ import annotations

import asyncio
import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest

from repro import SpecCC
from repro.service import server as server_module
from repro.service.faults import FaultPlan, install_journal, uninstall_journal
from repro.service.journal import (
    JournalStore,
    frame_record,
    read_records,
    validate_token,
)
from repro.service.server import AsyncSpecServer, serve
from repro.service.session import SpecSession

SRC = Path(__file__).resolve().parents[1] / "src"

#: A two-component document plus one edit per requirement — enough to
#: exercise add/load/update/check/compaction without slow analyses.
DOC = (
    "If the sensor is active, the valve is opened.\n"
    "If the button is pressed, the lamp is activated."
)
EDIT = "If the button is pressed, the lamp is not activated."


def scripted(store, requests, token: str = "docA") -> list:
    """*requests* through a fresh core whose session is attached to
    durable *token*; the responses."""

    async def drive():
        server = AsyncSpecServer(SpecCC(), journal_store=store)
        await server.handle_request({"op": "attach", "token": token})
        return [await server.handle_request(dict(request)) for request in requests]

    return asyncio.run(drive())


def _load_soak_corpus():
    """The 13-document soak corpus, imported from benchmarks/ (the one
    definition the CI soaks and the speed gates share)."""
    path = SRC.parent / "benchmarks" / "soak_corpus.py"
    spec = importlib.util.spec_from_file_location("soak_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT = [
    {"op": "load", "document": DOC, "rid": 1},
    {"op": "check", "timings": False, "rid": 2},
    {"op": "update", "id": "R2", "text": EDIT, "rid": 3},
    {"op": "check", "timings": False, "rid": 4},
    {"op": "remove", "id": "R1", "rid": 5},
    {"op": "check", "timings": False, "rid": 6},
]


class TestFraming:
    def test_round_trip(self):
        records = [{"op": "add", "id": "R1", "text": "x"}, {"op": "check"}]
        data = b"".join(frame_record(record) for record in records)
        parsed, valid, torn = read_records(data)
        assert parsed == records
        assert valid == len(data)
        assert torn is False

    def test_empty(self):
        assert read_records(b"") == ([], 0, False)

    def test_torn_tails_truncate_at_last_valid_record(self):
        whole = frame_record({"op": "check"})
        prefix = frame_record({"op": "add", "id": "R1", "text": "x"})
        # Every way a crash can shear the last record: mid-header,
        # mid-payload, and missing the terminating newline.
        for cut in (1, 10, len(whole) // 2, len(whole) - 1):
            records, valid, torn = read_records(prefix + whole[:cut])
            assert torn is True
            assert valid == len(prefix)
            assert records == [{"op": "add", "id": "R1", "text": "x"}]

    def test_corrupt_payload_is_detected_by_crc(self):
        data = bytearray(frame_record({"op": "check"}))
        data[-3] ^= 0xFF  # flip a payload byte, keep length and newline
        records, valid, torn = read_records(bytes(data))
        assert (records, valid, torn) == ([], 0, True)

    def test_garbage_header_is_torn(self):
        records, valid, torn = read_records(b"not a journal record\n")
        assert (records, valid, torn) == ([], 0, True)

    def test_crc_matches_payload_bytes(self):
        framed = frame_record({"op": "check"})
        payload = framed[18:-1]
        assert int(framed[9:17], 16) == zlib.crc32(payload) & 0xFFFFFFFF
        assert int(framed[0:8], 16) == len(payload)


class TestTokens:
    def test_accepts_safe_tokens(self):
        for token in ("default", "doc-3", "A.b_c", "x" * 64):
            assert validate_token(token) == token

    def test_rejects_path_tricks_and_nonsense(self):
        for token in ("", ".", "..", "../evil", "a/b", "a\\b", ".hidden",
                      "x" * 65, "sp ace", "nul\x00"):
            with pytest.raises(ValueError):
                validate_token(token)


class TestStore:
    def test_fsync_policy_parsing(self, tmp_path):
        assert JournalStore(tmp_path / "a", fsync="always").fsync_every == 1
        assert JournalStore(tmp_path / "b", fsync="never").fsync_every == 0
        assert JournalStore(tmp_path / "c", fsync="interval:5").fsync_every == 5
        with pytest.raises(ValueError):
            JournalStore(tmp_path / "d", fsync="sometimes")
        with pytest.raises(ValueError):
            JournalStore(tmp_path / "e", fsync="interval:0")

    def test_fsync_interval_counts_appends(self, tmp_path):
        store = JournalStore(tmp_path, fsync="interval:3", compact_every=0)
        durable = store.attach("t", SpecCC())
        for index in range(7):
            durable.journal.append({"op": "check", "rid": index})
        counters = store.counters()
        assert counters["appends"] == 7
        assert counters["fsyncs"] == 2  # after the 3rd and 6th append
        store.close()

    def test_journal_metrics_collector_registered(self, tmp_path):
        from repro.obs.metrics import registry

        store = JournalStore(tmp_path, fsync="never")
        snapshot = registry().snapshot(full=False)
        assert snapshot["journal"]["directory"] == str(tmp_path)
        assert snapshot["journal"]["appends"] == 0
        store.close()

    def test_compact_requires_checked_boundary(self, tmp_path):
        store = JournalStore(tmp_path, fsync="never")
        durable = store.attach("t", SpecCC())
        durable.session.add("R1", "The valve is opened.")
        with pytest.raises(ValueError):
            durable.journal.compact(durable.session, None)
        store.close()


class TestSyncRecovery:
    """Journaled sessions through the request core: journal, crash,
    recover, resume."""

    def _run_script(self, store):
        return scripted(store, SCRIPT)

    def test_replay_reproduces_byte_identical_reports(self, tmp_path):
        SpecCC.clear_caches()
        store = JournalStore(tmp_path, fsync="never", compact_every=0)
        reference = self._run_script(store)
        store.close()

        SpecCC.clear_caches()  # the "crash": all in-memory state gone
        recovered_store = JournalStore(tmp_path, fsync="never", compact_every=0)
        tool = SpecCC()
        durable = recovered_store.recover(tool)["docA"]
        assert durable.last_rid == 6
        assert durable.replayed_records == len(SCRIPT)
        assert durable.session.revision == 3
        # The recovered session's last report matches the last
        # acknowledged check byte for byte.
        from repro.service.reportjson import report_to_dict

        assert json.dumps(
            report_to_dict(durable.session.last_report.report, timings=False),
            sort_keys=True,
        ) == json.dumps(reference[-1]["report"], sort_keys=True)
        assert recovered_store.counters()["truncated_tails"] == 0
        recovered_store.close()

    def test_every_journaled_prefix_replays_consistently(self, tmp_path):
        """The crash-consistency invariant, exhaustively: for *every*
        record-boundary prefix of the journal, replay yields exactly the
        state an uninterrupted run had at that point."""
        SpecCC.clear_caches()
        store = JournalStore(tmp_path / "full", fsync="never", compact_every=0)
        self._run_script(store)
        store.close()
        data = (tmp_path / "full" / "docA.journal").read_bytes()
        records, valid, torn = read_records(data)
        assert torn is False and len(records) == len(SCRIPT)

        # Shadow the same history in plain sessions to know the expected
        # state after each prefix.
        boundaries = []
        offset = 0
        for record in records:
            offset += len(frame_record(record))
            boundaries.append(offset)
        tool = SpecCC()
        shadow = SpecSession(tool)
        expected = []
        for request in SCRIPT:
            op = request["op"]
            if op == "load":
                shadow.load_document(request["document"])
            elif op == "update":
                shadow.update(request["id"], request["text"])
            elif op == "remove":
                shadow.remove(request["id"])
            elif op == "check":
                shadow.check()
            expected.append((tuple(shadow.requirements()), shadow.revision))

        for index, boundary in enumerate(boundaries):
            prefix_dir = tmp_path / f"prefix{index}"
            prefix_dir.mkdir()
            (prefix_dir / "docA.journal").write_bytes(data[:boundary])
            prefix_store = JournalStore(prefix_dir, fsync="never")
            durable = prefix_store.recover(tool)["docA"]
            assert (
                tuple(durable.session.requirements()),
                durable.session.revision,
            ) == expected[index], f"prefix of {index + 1} records diverged"
            assert durable.last_rid == index + 1  # rids are 1..n in SCRIPT
            prefix_store.close()

    def test_compaction_bounds_journal_and_preserves_replay(self, tmp_path):
        SpecCC.clear_caches()
        compact_store = JournalStore(tmp_path / "c", fsync="never", compact_every=3)
        reference = self._run_script(compact_store)
        compact_store.close()
        assert compact_store.counters()["compactions"] >= 1

        data = (tmp_path / "c" / "docA.journal").read_bytes()
        records, _, torn = read_records(data)
        assert torn is False
        assert len(records) < len(SCRIPT)  # the log actually shrank
        assert records[0]["op"] == "snapshot"

        SpecCC.clear_caches()
        recovered_store = JournalStore(tmp_path / "c", fsync="never")
        durable = recovered_store.recover(SpecCC())["docA"]
        assert durable.session.revision == 3
        assert durable.last_rid == 6
        from repro.service.reportjson import report_to_dict

        assert json.dumps(
            report_to_dict(durable.session.last_report.report, timings=False),
            sort_keys=True,
        ) == json.dumps(reference[-1]["report"], sort_keys=True)
        recovered_store.close()

    def test_soak_corpus_recovers_byte_identical(self, tmp_path):
        """The 13-session soak corpus: each history ends in a compaction,
        replay recovers every session with no torn tail, and the
        recovered reports equal both the acknowledged ones and a cold
        client re-driving every history."""
        corpus = _load_soak_corpus()
        acknowledged, served = corpus.journal_histories(tmp_path)
        recovered, replayed = corpus.replay(tmp_path)
        assert len(acknowledged) == 13
        assert served["appends"] > 0
        assert served["compactions"] >= 13
        assert replayed["recovered_sessions"] == 13
        assert replayed["replayed_records"] > 0
        assert replayed["truncated_tails"] == 0
        assert recovered == acknowledged
        assert corpus.redrive() == acknowledged

    def test_duplicate_rids_are_not_reapplied(self, tmp_path):
        store = JournalStore(tmp_path, fsync="never")
        add = {"op": "add", "id": "R1", "text": "The valve is opened.", "rid": 1}
        check = {"op": "check", "timings": False, "rid": 2}
        first, retry, checked, again = scripted(store, [add, add, check, check])
        assert first["size"] == 1 and "duplicate" not in first
        assert retry["duplicate"] is True
        assert retry["size"] == 1  # exactly-once: not applied twice
        # A duplicate check re-serves the last report without re-running.
        assert again["duplicate"] is True
        assert store.counters()["duplicates"] == 2  # the add and the check
        assert json.dumps(again["report"], sort_keys=True) == json.dumps(
            checked["report"], sort_keys=True
        )
        assert again["revision"] == checked["revision"]
        store.close()

    def test_reset_is_journaled(self, tmp_path):
        store = JournalStore(tmp_path, fsync="never")
        scripted(
            store,
            [
                {"op": "add", "id": "R1", "text": "The valve is opened.", "rid": 1},
                {"op": "reset", "rid": 2},
                {"op": "add", "id": "R9", "text": "The lamp is activated.", "rid": 3},
            ],
        )
        store.close()
        recovered = JournalStore(tmp_path, fsync="never")
        durable = recovered.recover(SpecCC())["docA"]
        assert [i for i, _ in durable.session.requirements()] == ["R9"]
        assert durable.last_rid == 3
        recovered.close()

    def test_attach_requires_journaling(self):
        out = io.StringIO()
        serve(io.StringIO(json.dumps({"op": "attach", "token": "docA"}) + "\n"), out)
        response = json.loads(out.getvalue())
        assert response["ok"] is False
        assert response["code"] == "bad_request"
        assert "--journal" in response["error"]

    def test_serve_loop_with_journal_auto_attaches(self, tmp_path):
        store = JournalStore(tmp_path, fsync="never")
        out = io.StringIO()
        requests = [
            {"op": "add", "id": "R1", "text": "The valve is opened.", "rid": 1},
            {"op": "shutdown"},
        ]
        serve(
            io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n"),
            out,
            server=AsyncSpecServer(journal_store=store),
        )
        store.close()
        recovered = JournalStore(tmp_path, fsync="never")
        assert recovered.tokens_on_disk() == ("default",)
        durable = recovered.recover(SpecCC())["default"]
        assert len(durable.session) == 1 and durable.last_rid == 1
        recovered.close()


class TestJournalFaultHooks:
    """The fault vocabulary (in-process part: scheduling, not dying)."""

    def teardown_method(self):
        uninstall_journal()

    def test_plans_parse_journal_kinds(self):
        plan = FaultPlan.from_json(
            '{"faults": [{"kind": "journal_crash", "task": 3},'
            ' {"kind": "journal_torn", "task": 7}]}'
        )
        assert [spec.kind for spec in plan.specs] == [
            "journal_crash", "journal_torn",
        ]

    def test_append_ordinal_matching(self):
        from repro.service.faults import on_journal_append

        install_journal(FaultPlan.from_json(
            '{"faults": [{"kind": "journal_crash", "task": 2}]}'
        ))
        assert [on_journal_append() for _ in range(4)] == [
            None, None, "crash", None,
        ]

    def test_worker_plans_do_not_arm_journal_state(self):
        from repro.service.faults import on_journal_append

        install_journal(FaultPlan.from_json('{"faults": [{"kind": "crash"}]}'))
        assert on_journal_append() is None


def _spawn_serve(tmp_path: Path, *extra, faults=None) -> subprocess.Popen:
    """A real ``python -m repro serve --journal`` child on pipes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if faults is not None:
        env["REPRO_FAULTS"] = json.dumps(faults)
    else:
        env.pop("REPRO_FAULTS", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--journal", str(tmp_path / "journal"), *extra],
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def _request(proc: subprocess.Popen, payload: dict) -> dict:
    proc.stdin.write(json.dumps(payload) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    assert line, "serve child died before responding"
    return json.loads(line)


class TestCrashRecoverySubprocess:
    """Real process death: injected journal faults + SIGTERM drain."""

    def test_journal_crash_fault_preserves_append_and_dedupes_retry(
        self, tmp_path
    ):
        # Fault: die on the 2nd journal append (the check's), after the
        # record is durable, before the ack reaches the client.
        crashing = _spawn_serve(
            tmp_path,
            faults={"faults": [{"kind": "journal_crash", "task": 1}]},
        )
        try:
            added = _request(
                crashing,
                {"op": "add", "id": "R1",
                 "text": "The valve is opened.", "rid": 1},
            )
            assert added["ok"] is True
            crashing.stdin.write(
                json.dumps({"op": "check", "timings": False, "rid": 2}) + "\n"
            )
            crashing.stdin.flush()
            assert crashing.stdout.readline() == ""  # no ack: it crashed
            assert crashing.wait(timeout=30) == 1
        finally:
            _reap(crashing)

        # Restart on the same journal; the unacknowledged check WAS
        # journaled, so the client's retry dedupes (exactly-once) and
        # still gets the full report.
        restarted = _spawn_serve(tmp_path)
        try:
            retried = _request(
                restarted, {"op": "check", "timings": False, "rid": 2}
            )
            assert retried["ok"] is True
            assert retried["duplicate"] is True
            assert retried["revision"] == 1
            assert [r["identifier"] for r in retried["report"]["requirements"]] \
                == ["R1"]
            stats = _request(restarted, {"op": "stats"})
            assert stats["journal"]["replayed_records"] == 2
            assert stats["journal"]["truncated_tails"] == 0
            assert stats["journal"]["duplicates"] == 1
        finally:
            _reap(restarted)

    def test_journal_torn_fault_is_truncated_and_retry_applies_fresh(
        self, tmp_path
    ):
        torn = _spawn_serve(
            tmp_path,
            faults={"faults": [{"kind": "journal_torn", "task": 1}]},
        )
        try:
            _request(torn, {"op": "add", "id": "R1",
                            "text": "The valve is opened.", "rid": 1})
            torn.stdin.write(
                json.dumps({"op": "add", "id": "R2", "rid": 2,
                            "text": "The lamp is activated."}) + "\n"
            )
            torn.stdin.flush()
            assert torn.stdout.readline() == ""
            assert torn.wait(timeout=30) == 1
        finally:
            _reap(torn)
        # The half-written record must be on disk (the fault wrote it)...
        journal = tmp_path / "journal" / "default.journal"
        _, _, torn_tail = read_records(journal.read_bytes())
        assert torn_tail is True

        restarted = _spawn_serve(tmp_path)
        try:
            # ...and recovery truncated it: R2 was never acknowledged and
            # is NOT replayed; the retry applies it fresh (not duplicate).
            retried = _request(
                restarted, {"op": "add", "id": "R2", "rid": 2,
                            "text": "The lamp is activated."})
            assert retried["ok"] is True
            assert "duplicate" not in retried
            assert retried["size"] == 2
            stats = _request(restarted, {"op": "stats"})
            assert stats["journal"]["truncated_tails"] == 1
            assert stats["journal"]["replayed_records"] == 1
        finally:
            _reap(restarted)

    def test_sigterm_drains_flushes_and_exits_zero(self, tmp_path):
        proc = _spawn_serve(tmp_path)
        try:
            added = _request(proc, {"op": "add", "id": "R1",
                                    "text": "The valve is opened.", "rid": 1})
            assert added["ok"] is True
            # A request goes in and the signal lands right behind it: the
            # in-flight request must finish and its response flush before
            # the drain exits.
            proc.stdin.write(
                json.dumps({"op": "check", "timings": False, "rid": 2}) + "\n"
            )
            proc.stdin.flush()
            time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            response = proc.stdout.readline()
            assert response, "in-flight check was dropped by the drain"
            assert json.loads(response)["ok"] is True
            assert proc.wait(timeout=30) == 0
        finally:
            _reap(proc)
        # The journal survived the drain: both records fsynced.
        recovered = JournalStore(tmp_path / "journal", fsync="never")
        durable = recovered.recover(SpecCC())["default"]
        assert durable.last_rid == 2 and durable.session.revision == 1
        recovered.close()

    def test_sigterm_while_idle_exits_zero(self, tmp_path):
        proc = _spawn_serve(tmp_path)
        try:
            assert _request(proc, {"op": "ping"})["ok"] is True
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            _reap(proc)


def _reap(proc: subprocess.Popen) -> None:
    for stream in (proc.stdin, proc.stdout):
        try:
            if stream is not None:
                stream.close()
        except OSError:
            pass
    if proc.poll() is None:
        proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)


class TestAsyncDurable:
    """The request core: attach aliases, detach-vs-drop, resume."""

    def _drive(self, coro):
        return asyncio.run(coro)

    def test_attach_resume_and_dedupe_across_front_ends(self, tmp_path):
        store = JournalStore(tmp_path, fsync="never")

        async def first_life():
            server = AsyncSpecServer(SpecCC(), journal_store=store)
            responses = []
            await server.handle_request({"op": "attach", "token": "docA",
                                         "session": "s1"})
            for request in SCRIPT[:4]:
                responses.append(
                    await server.handle_request(dict(request, session="s1"))
                )
            return server, responses

        server, responses = self._drive(first_life())
        assert all(r["ok"] for r in responses)
        # Dropping the namespace keeps the durable session.
        assert server.drop_sessions("s1") == 0
        assert server.detach_sessions("s1") == 1
        assert server.durable_tokens == ("docA",)
        store.close()

        # Second life: a fresh store over the same directory (the
        # restart), resumed through a different session name.
        SpecCC.clear_caches()
        recovered_store = JournalStore(tmp_path, fsync="never")

        async def second_life():
            server = AsyncSpecServer(SpecCC(), journal_store=recovered_store)
            attach = await server.handle_request(
                {"op": "attach", "token": "docA", "session": "other"}
            )
            retry = await server.handle_request(
                {"op": "update", "id": "R2", "text": EDIT,
                 "rid": 3, "session": "other"}
            )
            check = await server.handle_request(
                {"op": "check", "timings": False, "rid": 7, "session": "other"}
            )
            return attach, retry, check

        attach, retry, check = self._drive(second_life())
        assert attach["ok"] is True
        assert attach["last_rid"] == 4
        assert attach["revision"] == 2
        assert retry["duplicate"] is True  # exactly-once across restart
        # The replayed document checks to the byte-identical report the
        # first life acknowledged (revision/delta are fresh-run state and
        # legitimately differ; the report is the pure function).
        assert json.dumps(check["report"], sort_keys=True) == json.dumps(
            responses[3]["report"], sort_keys=True
        )
        recovered_store.close()

    def test_attach_validates_tokens_and_requires_store(self, tmp_path):
        async def no_store():
            server = AsyncSpecServer(SpecCC())
            return await server.handle_request(
                {"op": "attach", "token": "docA"}
            )

        response = self._drive(no_store())
        assert response["ok"] is False and response["code"] == "bad_request"

        store = JournalStore(tmp_path, fsync="never")

        async def bad_token():
            server = AsyncSpecServer(SpecCC(), journal_store=store)
            return await server.handle_request(
                {"op": "attach", "token": "../evil"}
            )

        response = self._drive(bad_token())
        assert response["ok"] is False and response["code"] == "bad_request"
        assert not (tmp_path.parent / "evil.journal").exists()
        store.close()

    def test_durable_sessions_count_against_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_SESSIONS", 1)
        store = JournalStore(tmp_path, fsync="never")

        async def drive():
            server = AsyncSpecServer(SpecCC(), journal_store=store)
            first = await server.handle_request(
                {"op": "attach", "token": "one", "session": "a"}
            )
            second = await server.handle_request(
                {"op": "attach", "token": "two", "session": "b"}
            )
            return first, second

        first, second = self._drive(drive())
        assert first["ok"] is True
        assert second["ok"] is False and second["code"] == "bad_request"
        store.close()
