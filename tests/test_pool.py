"""Tests of the persistent sharded worker pool (service/pool.py).

The contract under test: canonical reports are byte-identical across
every backend and every shard count, repeated documents land on warm
worker caches (observable through ``pool.stats()``), and the shared-pool
registry hands the same pool to equivalent tool setups.

The fault-injection half (``TestFaultInjection``) drives the supervision
layer through every scheduled failure mode — worker crash, hung worker,
mid-pipeline raise, respawn that keeps failing — and asserts the *same*
byte-identity contract plus exact recovery counters (deterministic
because dispatch is serialized per shard and the fault plan is seeded).
"""

from __future__ import annotations

import json

import pytest

from repro import BatchChecker, SpecCC, SpecCCConfig
from repro.service import supervision as supervision_module
from repro.service.faults import FaultPlan, FaultSpec
from repro.service.pool import (
    WorkerPool,
    document_signature,
    shared_pool,
    shutdown_shared_pools,
)
from repro.service.supervision import SupervisionConfig, backoff_delay

DOCS = [
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
    (
        "antonyms",  # a two-dependent subject: drives the semantics memo
        "If the feed is valid, the lamp is activated.\n"
        "If the feed is invalid, the lamp is not activated.\n",
    ),
]


#: The 13-document corpus of the fault-recovery acceptance criterion:
#: the five base documents plus simple variations, so a mid-corpus crash
#: has plenty of siblings before and after it.
CORPUS13 = DOCS + [
    ("c6", "If the door is closed, the fan is started.\n"),
    ("c7", "If the mode is manual, the heater is enabled.\n"),
    ("c8", "The pump is started.\nThe pump is not started.\n"),
    ("c9", "If the switch is pressed, the light is enabled.\n"),
    ("c10", "If the tank is full, the pump is not started.\n"),
    ("c11", "If the level is high, the drain is opened.\n"),
    ("c12", "If the signal is received, the motor is stopped.\n"),
    ("c13", "If the guard is closed, the press is released.\n"),
]


@pytest.fixture
def fast_backoff(monkeypatch):
    """The production backoff shape with tiny delays."""
    monkeypatch.setattr(supervision_module, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(supervision_module, "BACKOFF_CAP", 0.05)


def canonical(results) -> list:
    return [json.dumps(result.data, sort_keys=True) for result in results]


@pytest.fixture(autouse=True, scope="module")
def _registry_cleanup():
    yield
    shutdown_shared_pools()


class TestDocumentSignature:
    def test_stable_for_identical_content(self):
        assert document_signature(DOCS[0][1]) == document_signature(DOCS[0][1])

    def test_distinguishes_content(self):
        signatures = {document_signature(text) for _, text in DOCS}
        assert len(signatures) == len(DOCS)

    def test_distinguishes_document_shape(self):
        text = "If the sensor is active, the valve is opened."
        assert document_signature(text) != document_signature([("R1", text)])

    def test_pair_identifiers_matter(self):
        text = "If the sensor is active, the valve is opened."
        assert document_signature([("R1", text)]) != document_signature(
            [("R2", text)]
        )


class TestWorkerPool:
    def test_reports_byte_identical_across_backends_and_shards(self):
        """Thread and persistent pool (at several shard counts) backends
        all emit the sequential bytes."""
        sequential = canonical(BatchChecker(workers=1).check_documents(DOCS))
        assert canonical(BatchChecker(workers=4).check_documents(DOCS)) == sequential
        for shards in (1, 2, 4):
            with WorkerPool(shards=shards) as pool:
                tasks = pool.check_documents(DOCS)
                assert [
                    json.dumps(task.data, sort_keys=True) for task in tasks
                ] == sequential, f"shards={shards}"
                assert [task.name for task in tasks] == [name for name, _ in DOCS]

    def test_repeated_corpus_hits_warm_worker_caches(self):
        """Second pass over the same corpus must be served from the
        workers' component-outcome LRUs: no new misses, only hits."""
        SpecCC.clear_caches()  # forked workers start cold, then prewarm
        with WorkerPool(shards=2) as pool:
            pool.check_documents(DOCS)
            first = pool.stats()
            assert first["worker_cache"]["misses"] > 0

            pool.check_documents(DOCS)
            second = pool.stats()

        assert second["worker_cache"]["misses"] == first["worker_cache"]["misses"]
        assert (
            second["worker_cache"]["hits"]
            >= first["worker_cache"]["hits"] + len(DOCS)
        )
        assert second["affinity_repeats"] == len(DOCS)
        assert second["distinct_signatures"] == len(DOCS)
        assert second["tasks"] == 2 * len(DOCS)
        assert sum(second["per_shard"]) == second["tasks"]
        assert second["worker_cache"]["hit_rate"] > 0

    def test_same_document_always_routes_to_same_shard(self):
        with WorkerPool(shards=4) as pool:
            shard = pool.shard_of(DOCS[0][1])
            for _ in range(3):
                pool.submit("again", DOCS[0][1]).result()
            stats = pool.stats()
            assert stats["per_shard"][shard] == 3
            assert sum(stats["per_shard"]) == 3

    def test_startup_seconds_reported_once(self):
        pool = WorkerPool(shards=1)
        try:
            assert pool.stats()["started"] is False
            first = pool.ensure_started()
            assert first > 0
            assert pool.ensure_started() == first  # idempotent
            assert pool.stats()["startup_seconds"] == first
        finally:
            pool.shutdown()

    def test_worker_snapshots_are_per_shard(self):
        with WorkerPool(shards=2) as pool:
            pool.check_documents(DOCS)
            snapshots = pool.worker_snapshots()
        assert len(snapshots) == 2
        for snapshot in snapshots:
            assert "component_cache" in snapshot
            assert "synthesis" in snapshot
        # The corpus was split over the shards, so at least one worker
        # actually analysed something.
        assert any(s["component_cache"]["misses"] > 0 for s in snapshots)

    def test_worker_errors_yield_error_records_not_exceptions(self):
        """Per-document isolation: a document whose pipeline raises
        resolves to the shared error record — the future never raises,
        siblings are unaffected, and the failure is counted."""
        with WorkerPool(shards=1) as pool:
            bad = pool.submit("bad", [("R1", "")]).result()
            good = pool.submit("good", DOCS[0][1]).result()
            assert bad.error is not None
            assert bad.data["verdict"] == "error"
            assert bad.data["consistent"] is False
            assert bad.data["error"]["type"] == "StructuredEnglishError"
            assert good.error is None
            assert good.data["consistent"] is True
            stats = pool.stats()
            assert stats["failures"] == 1
            assert stats["supervision"]["error_records"] == 1
            # A deterministic document error is retried max_attempts
            # times before the record is emitted, on the same worker.
            assert stats["supervision"]["task_errors"] == 3
            assert stats["spawns"] == [0]

    def test_error_records_byte_identical_to_sequential(self, fast_backoff):
        """A pipeline exception raised inside a worker process crosses
        the process boundary under its original type name: the error
        record matches the sequential run byte for byte, and no worker
        died for it."""
        corpus = [("bad", [("R1", "")])] + DOCS
        sequential = canonical(BatchChecker(workers=1).check_documents(corpus))
        with WorkerPool(shards=2, supervision=SupervisionConfig(seed=0)) as pool:
            tasks = pool.check_documents(corpus)
            stats = pool.stats()
        assert canonical(tasks) == sequential
        assert tasks[0].data["error"]["type"] == "StructuredEnglishError"
        assert all(task.error is None for task in tasks[1:])
        assert stats["supervision"]["error_records"] == 1
        assert stats["supervision"]["worker_deaths"] == 0
        assert stats["spawns"] == [0, 0]

    def test_stats_row_keys(self):
        """The pool row that the serve ``stats``/``metrics`` ops and
        ``check --stats`` surface.  The local process pool is the only
        transport, so the row carries no ``remote`` member."""
        with WorkerPool(shards=1) as pool:
            pool.check_documents(DOCS[:1])
            stats = pool.stats()
        assert set(stats) == {
            "shards",
            "started",
            "startup_seconds",
            "tasks",
            "failures",
            "per_shard",
            "spawns",
            "distinct_signatures",
            "affinity_repeats",
            "supervision",
            "worker_cache",
        }
        assert stats["tasks"] == 1

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            WorkerPool(shards=0)

    def test_shutdown_rejects_new_work(self):
        pool = WorkerPool(shards=1)
        pool.ensure_started()
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit("late", DOCS[0][1])


class TestSharedRegistry:
    def test_same_setup_reuses_the_pool(self):
        first = shared_pool(shards=2)
        second = shared_pool(shards=2)
        assert first is second

    def test_distinct_shard_counts_get_distinct_pools(self):
        assert shared_pool(shards=2) is not shared_pool(shards=3)

    def test_pools_are_keyed_on_the_config(self):
        # The config is all a worker needs to rebuild its tool, so equal
        # configs share one pool and another config gets its own.
        assert shared_pool(SpecCCConfig(), shards=2) is shared_pool(shards=2)
        other = SpecCCConfig(error_bound=4)
        assert shared_pool(other, shards=2) is not shared_pool(shards=2)

    def test_batchchecker_process_backend_uses_registry(self):
        sequential = canonical(BatchChecker(workers=1).check_documents(DOCS))
        pooled = BatchChecker(workers=2, backend="process").check_documents(DOCS)
        assert canonical(pooled) == sequential
        # A second checker with the same setup reuses the same warm pool.
        pool = shared_pool(shards=2)
        before = pool.stats()["tasks"]
        BatchChecker(workers=2, backend="process").check_documents(DOCS)
        assert shared_pool(shards=2).stats()["tasks"] == before + len(DOCS)

    def test_injected_pool_wins_over_registry(self):
        with WorkerPool(shards=1) as pool:
            checker = BatchChecker(workers=4, backend="process", pool=pool)
            results = checker.check_documents(DOCS[:2])
            assert [r.name for r in results] == [name for name, _ in DOCS[:2]]
            assert pool.stats()["tasks"] == 2

    def test_closed_pool_is_replaced_not_handed_out(self):
        first = shared_pool(shards=2)
        first.shutdown()
        second = shared_pool(shards=2)
        assert second is not first
        assert not second.closed

    def test_registry_shutdown_is_idempotent_and_tolerant(self):
        pool = shared_pool(shards=2)
        pool.ensure_started()
        # A pool shut down out from under the registry (supervisors and
        # tests do this) must not break the exit hook, and repeated
        # registry shutdowns must be no-ops.
        pool.shutdown()
        shutdown_shared_pools()
        shutdown_shared_pools()
        assert shared_pool(shards=2) is not pool


class TestFaultPlan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="explode")

    def test_json_roundtrip(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="crash", shard=1, task=2, max_spawn=0),
                FaultSpec(kind="delay", seconds=0.5, times=-1),
            ),
            seed=42,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_plan_keys_are_rejected(self):
        """A typo'd plan must fail loudly, not silently inject nothing."""
        with pytest.raises(ValueError, match="unknown fault plan keys"):
            FaultPlan.from_json('{"seed": 1, "fautls": []}')

    def test_from_env(self):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", task=0),), seed=3)
        environ = {"REPRO_FAULTS": plan.to_json()}
        assert FaultPlan.from_env(environ) == plan
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_FAULTS": "  "}) is None

    def test_spawn_window_matching(self):
        spec = FaultSpec(kind="crash", shard=1, min_spawn=1, max_spawn=2)
        assert not spec.matches_worker(shard=0, spawn=1)
        assert not spec.matches_worker(shard=1, spawn=0)
        assert spec.matches_worker(shard=1, spawn=1)
        assert spec.matches_worker(shard=1, spawn=2)
        assert not spec.matches_worker(shard=1, spawn=3)

    def test_backoff_delay_is_deterministic_and_bounded(self):
        config = SupervisionConfig(seed=7)
        first = backoff_delay(config, "doc", 1)
        assert first == backoff_delay(config, "doc", 1)
        assert first != backoff_delay(SupervisionConfig(seed=8), "doc", 1)
        cap = supervision_module.BACKOFF_CAP * (1 + supervision_module.JITTER)
        for attempt in range(1, 8):
            assert 0 < backoff_delay(config, "doc", attempt) <= cap

    def test_backoff_doubles_to_its_cap_plus_jitter(self, fast_backoff, monkeypatch):
        config = SupervisionConfig(seed=7)
        jitter = supervision_module.JITTER
        jittered = [backoff_delay(config, "doc", attempt) for attempt in range(1, 6)]
        monkeypatch.setattr(supervision_module, "JITTER", 0.0)
        plain = [backoff_delay(config, "doc", attempt) for attempt in range(1, 6)]
        assert plain == [0.01, 0.02, 0.04, 0.05, 0.05]
        for delay, base in zip(jittered, plain):
            assert base < delay <= base * (1 + jitter)


class TestFaultInjection:
    """The acceptance criteria: every scheduled failure recovers to
    byte-identical reports, with exact recovery counters."""

    def test_crash_mid_corpus_recovers_byte_identical(self, fast_backoff):
        """Kill shard K's worker on its Nth task mid-13-doc-corpus: the
        batch completes, bytes match ``workers=1``, and the counters
        match the plan exactly — one death, one restart, one retry."""
        sequential = canonical(
            BatchChecker(workers=1).check_documents(CORPUS13)
        )
        shards = 2
        # Pick a shard that receives a third task to crash on: matching
        # is positional (per-worker task ordinal), so the test computes
        # the routing the same way the pool does.
        per_shard = [0] * shards
        for _, document in CORPUS13:
            per_shard[int(document_signature(document), 16) % shards] += 1
        target = max(range(shards), key=lambda shard: per_shard[shard])
        assert per_shard[target] >= 3
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="crash", shard=target, task=2, max_spawn=0),
            ),
            seed=11,
        )
        pool = WorkerPool(
            shards=shards,
            fault_plan=plan,
            supervision=SupervisionConfig(seed=plan.seed),
        )
        with pool:
            tasks = pool.check_documents(CORPUS13)
            got = [json.dumps(task.data, sort_keys=True) for task in tasks]
            stats = pool.stats()
        assert got == sequential
        assert all(task.error is None for task in tasks)
        supervision = stats["supervision"]
        assert supervision["worker_deaths"] == 1
        assert supervision["restarts"] == 1
        assert supervision["retries"] == 1
        assert supervision["attempts"] == len(CORPUS13) + 1
        assert supervision["timeouts"] == 0
        assert supervision["degraded_tasks"] == 0
        assert supervision["degraded"] is False
        assert stats["spawns"][target] == 1
        assert sum(stats["spawns"]) == 1
        assert stats["failures"] == 0

    def test_hung_worker_times_out_and_recovers(self, fast_backoff):
        """A delay fault + watchdog timeout: the hung worker is killed,
        respawned, and the task retried — reports stay byte-identical."""
        docs = DOCS[:3]
        sequential = canonical(BatchChecker(workers=1).check_documents(docs))
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="delay", task=0, seconds=30.0, max_spawn=0),
            ),
            seed=5,
        )
        pool = WorkerPool(
            shards=1,
            fault_plan=plan,
            supervision=SupervisionConfig(seed=plan.seed, task_timeout=2.0),
        )
        with pool:
            tasks = pool.check_documents(docs)
            got = [json.dumps(task.data, sort_keys=True) for task in tasks]
            supervision = pool.stats()["supervision"]
        assert got == sequential
        assert supervision["timeouts"] == 1
        assert supervision["restarts"] == 1
        assert supervision["retries"] == 1
        assert supervision["degraded"] is False

    def test_timeout_then_degraded_fallback_end_to_end(self, fast_backoff):
        """Every spawn hangs on every task: timeout → respawn → retry →
        timeout again → attempts exhausted → in-process fallback.  The
        results are still byte-identical and the degradation is
        counted, never silent."""
        docs = DOCS[:2]
        sequential = canonical(BatchChecker(workers=1).check_documents(docs))
        plan = FaultPlan(
            specs=(FaultSpec(kind="delay", seconds=30.0, times=-1),),
            seed=9,
        )
        pool = WorkerPool(
            shards=1,
            fault_plan=plan,
            supervision=SupervisionConfig(
                seed=plan.seed, task_timeout=0.5, max_attempts=2
            ),
        )
        with pool:
            tasks = pool.check_documents(docs)
            got = [json.dumps(task.data, sort_keys=True) for task in tasks]
            supervision = pool.stats()["supervision"]
        assert got == sequential
        assert all(task.error is None for task in tasks)
        assert supervision["degraded_tasks"] == len(docs)
        assert supervision["degraded"] is True
        assert supervision["timeouts"] == 2 * len(docs)
        assert supervision["restarts"] == 2 * len(docs)

    def test_respawn_failure_trips_circuit_breaker(self, fast_backoff, monkeypatch):
        """Respawn forced to keep failing (``crash_init`` aimed at every
        respawn generation): the circuit breaker opens, the whole corpus
        still completes byte-identically on the in-process path, and
        ``degraded=True`` is surfaced in stats."""
        monkeypatch.setattr(supervision_module, "MAX_RESPAWN_FAILURES", 2)
        docs = DOCS[:3]
        sequential = canonical(BatchChecker(workers=1).check_documents(docs))
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="crash", task=0, max_spawn=0),
                FaultSpec(kind="crash_init", min_spawn=1, times=-1),
            ),
            seed=13,
        )
        pool = WorkerPool(
            shards=1,
            fault_plan=plan,
            supervision=SupervisionConfig(seed=plan.seed),
        )
        with pool:
            tasks = pool.check_documents(docs)
            got = [json.dumps(task.data, sort_keys=True) for task in tasks]
            stats = pool.stats()
        assert got == sequential
        supervision = stats["supervision"]
        assert supervision["circuit_open"] is True
        assert supervision["degraded"] is True
        assert supervision["degraded_tasks"] == len(docs)
        assert supervision["respawn_failures"] == 2
        assert supervision["worker_deaths"] == 1
        assert stats["failures"] == 0

    def test_pipeline_raise_fault_is_retried_on_same_worker(self, fast_backoff):
        """A ``raise`` fault fires once inside ``check_translated``; the
        supervisor retries on the same (healthy) worker, where the
        fired-count keeps it from re-firing — no respawn needed."""
        docs = DOCS[:2]
        sequential = canonical(BatchChecker(workers=1).check_documents(docs))
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise", task=0),),
            seed=17,
        )
        pool = WorkerPool(
            shards=1,
            fault_plan=plan,
            supervision=SupervisionConfig(seed=plan.seed),
        )
        with pool:
            tasks = pool.check_documents(docs)
            got = [json.dumps(task.data, sort_keys=True) for task in tasks]
            supervision = pool.stats()["supervision"]
        assert got == sequential
        assert supervision["task_errors"] == 1
        assert supervision["retries"] == 1
        assert supervision["restarts"] == 0
        assert supervision["worker_deaths"] == 0
        assert supervision["degraded"] is False

    def test_batchchecker_process_backend_survives_crash(self, fast_backoff):
        """The acceptance criterion at the BatchChecker surface: a
        seeded crash plan, ``backend="process"``, full 13-doc corpus,
        byte-identical output."""
        sequential = canonical(
            BatchChecker(workers=1).check_documents(CORPUS13)
        )
        plan = FaultPlan(
            specs=(FaultSpec(kind="crash", task=1, max_spawn=0),),
            seed=23,
        )
        with WorkerPool(
            shards=2,
            fault_plan=plan,
            supervision=SupervisionConfig(seed=plan.seed),
        ) as pool:
            checker = BatchChecker(workers=2, backend="process", pool=pool)
            results = checker.check_documents(CORPUS13)
            supervision = pool.stats()["supervision"]
        assert canonical(results) == sequential
        # task=1 with shard=None: each shard's worker crashes on its
        # second task — two deaths, two restarts, two retries, exactly.
        assert supervision["worker_deaths"] == 2
        assert supervision["restarts"] == 2
        assert supervision["retries"] == 2


class TestAggregateStatsAcrossPools:
    """The fleet-level supervision summary (satellite of the
    observability tier): one ``aggregate_stats`` row over many pools —
    including pools that have already been shut down, whose counters
    must still contribute."""

    def test_two_live_pools_plus_one_closed_pool(self, fast_backoff):
        from repro.service.supervision import aggregate_stats

        # Pool 1: a scheduled mid-pipeline raise -> one task error, one
        # retry, non-zero recovery counters to make the sum meaningful.
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise", task=0, max_spawn=0),),
            seed=21,
        )
        faulty = WorkerPool(
            shards=1,
            fault_plan=plan,
            supervision=SupervisionConfig(seed=plan.seed),
        )
        clean = WorkerPool(shards=1)
        retired = WorkerPool(shards=1)
        with retired:
            retired.check_documents(DOCS[:1])
        assert retired.closed  # stats() must keep working afterwards

        with faulty, clean:
            faulty.check_documents(DOCS[:2])
            clean.check_documents(DOCS[:2])
            rows = [faulty.stats(), clean.stats(), retired.stats()]

        total = aggregate_stats(rows)
        per_pool = [row["supervision"] for row in rows]
        assert per_pool[0]["task_errors"] == 1
        assert per_pool[0]["retries"] == 1
        assert per_pool[2]["attempts"] == 1  # the closed pool's history
        for key in (
            "attempts",
            "retries",
            "restarts",
            "timeouts",
            "worker_deaths",
            "task_errors",
            "respawn_failures",
            "degraded_tasks",
            "error_records",
        ):
            assert total[key] == sum(stats[key] for stats in per_pool), key
        assert total["attempts"] == 6  # 2 + 1 retry, 2, 1
        assert total["degraded"] is False
        assert total["circuit_open"] is False

    def test_boolean_flags_aggregate_by_any_and_junk_rows_are_skipped(self):
        from repro.service.supervision import aggregate_stats

        rows = [
            {"supervision": {"attempts": 2, "degraded": True}},
            {"supervision": {"attempts": 3, "circuit_open": True}},
            {},  # a row with no supervision block contributes nothing
            {"supervision": None},
            "not-a-dict",
        ]
        total = aggregate_stats(rows)
        assert total["attempts"] == 5
        assert total["degraded"] is True
        assert total["circuit_open"] is True
