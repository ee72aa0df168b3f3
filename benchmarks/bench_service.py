"""Service-layer benchmark runner — emits ``BENCH_service.json``.

Measures the workloads the :mod:`repro.service` subsystem exists
for:

* **edit_loop**: the paper's maintenance scenario — an N-requirement
  document, k single-sentence edits, re-checked after every edit.
  *incremental* uses one long-lived :class:`repro.SpecSession` (only the
  edited component is re-translated/re-analysed); *fresh* clears every
  cache and runs a new ``SpecCC.check`` per edit, which is what the
  one-shot CLI amounted to before this subsystem existed.
* **batch**: throughput in documents/second over the generated Table-I
  component specifications: the in-process thread backend (one loop,
  whatever its ``workers``, so it is timed once) and the persistent
  sharded :class:`repro.service.WorkerPool`.  Pool startup
  seconds are reported on their own line, *cold* is the first pass over
  the corpus and *steady* re-runs the corpus over warm worker caches —
  the number that matters for a long-lived service.  Every backend's
  canonical reports are byte-compared against the sequential ones.
* **fault_recovery**: the cost of staying correct under failure — the
  same 13-document pass clean, with one injected worker crash (supervised
  respawn + retry), and fully degraded to the in-process fallback after
  the circuit breaker trips; every pass byte-compared against the
  sequential reference.
* **async_serve**: the request loop multiplexing many concurrent client
  sessions over one stdio stream, with per-session responses checked
  against each session served alone.
* **recovery**: what restarting with a write-ahead journal buys — the
  13-document corpus served through journaled durable sessions (each
  document its own token, a few maintenance edits of history, snapshot
  compaction on), then "crashed" (all in-memory state and caches
  discarded) and brought back two ways: ``JournalStore.recover`` replay,
  and a cold client re-driving its full edit history from scratch.
  Both are byte-compared against the pre-crash acknowledged reports;
  replay must win, because compaction collapsed each journal's history
  to a snapshot plus its tail while the cold path pays for every
  intermediate check again.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/bench_service.py           # -> BENCH_service.json
    PYTHONPATH=src python benchmarks/bench_service.py --quick   # smoke run (CI)
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import SpecCC, SpecCCConfig, SpecSession, TranslationOptions  # noqa: E402
from repro.casestudies import component_requirements  # noqa: E402
from repro.service.batch import BatchChecker  # noqa: E402
from repro.service.pool import WorkerPool  # noqa: E402
from repro.service.server import AsyncSpecServer, serve  # noqa: E402

SCHEMA = "repro-bench-service/7"


def _config() -> SpecCCConfig:
    return SpecCCConfig(translation=TranslationOptions(next_as_x=False))


# --------------------------------------------------------------- edit loop
def edit_workload(size: int) -> List[Tuple[str, str]]:
    """*size* single-requirement components over disjoint variable pools."""
    return [
        (
            f"R{index}",
            f"If the sensor {index} is active, the device {index} is started.",
        )
        for index in range(1, size + 1)
    ]


def edit_sequence(size: int, edits: int) -> List[Tuple[str, str]]:
    """k single-sentence edits cycling through the document."""
    sequence = []
    for edit in range(edits):
        index = (edit * 7) % size + 1  # stride so edits spread over the doc
        adjective = "normal" if edit % 2 == 0 else "active"
        sequence.append(
            (
                f"R{index}",
                f"If the sensor {index} is {adjective}, "
                f"the device {index} is started.",
            )
        )
    return sequence


def bench_edit_loop(quick: bool) -> Dict[str, object]:
    size = 12 if quick else 40
    edits = 4 if quick else 12
    requirements = edit_workload(size)
    sequence = edit_sequence(size, edits)

    # Incremental: one session, caches warm across the whole loop.
    SpecCC.clear_caches()
    session = SpecSession(SpecCC(_config()))
    for identifier, sentence in requirements:
        session.add(identifier, sentence)
    first = session.check()
    incremental_verdicts = []
    reanalyzed_per_edit = []
    start = time.perf_counter()
    for identifier, sentence in sequence:
        session.update(identifier, sentence)
        report = session.check()
        incremental_verdicts.append(report.verdict.value)
        reanalyzed_per_edit.append(len(report.delta.reanalyzed))
    incremental_seconds = time.perf_counter() - start

    # Fresh: what re-running the one-shot pipeline per edit costs.  Caches
    # are cleared per edit — a fresh process has nothing warmed.
    state = dict(requirements)
    fresh_verdicts = []
    start = time.perf_counter()
    for identifier, sentence in sequence:
        state[identifier] = sentence
        SpecCC.clear_caches()
        tool = SpecCC(_config())
        report = tool.check(list(state.items()))
        fresh_verdicts.append(report.verdict.value)
    fresh_seconds = time.perf_counter() - start

    return {
        "requirements": size,
        "edits": edits,
        "first_check_seconds": first.seconds,
        "incremental_seconds": incremental_seconds,
        "fresh_seconds": fresh_seconds,
        "speedup": (
            round(fresh_seconds / incremental_seconds, 2)
            if incremental_seconds > 0
            else None
        ),
        "max_components_reanalyzed_per_edit": max(reanalyzed_per_edit),
        "verdicts_match": incremental_verdicts == fresh_verdicts,
        "verdicts": incremental_verdicts,
    }


# -------------------------------------------------------------------- batch
def batch_documents(quick: bool) -> List[Tuple[str, List[Tuple[str, str]]]]:
    rows = sorted(component_requirements().items())
    if quick:
        rows = rows[:4]
    return [(f"cara-{row}", list(reqs)) for row, reqs in rows]


def _rate(count: int, seconds: float):
    return round(count / seconds, 2) if seconds else None


def bench_batch(quick: bool) -> Dict[str, object]:
    documents = batch_documents(quick)
    SpecCC.clear_caches()
    checker = BatchChecker(config=_config(), workers=1)
    start = time.perf_counter()
    batch = checker.check_documents(documents)
    seconds = time.perf_counter() - start
    canonical = [json.dumps(result.data, sort_keys=True) for result in batch]
    thread1_rate = _rate(len(documents), seconds)
    results: Dict[str, object] = {
        "documents": len(documents),
        "thread": {"1": {"seconds": seconds, "docs_per_sec": thread1_rate}},
    }
    deterministic = True

    # The persistent pool: startup charged once on its own line; cold =
    # first pass over the corpus; steady = the same corpus re-checked
    # over warm worker caches (what a long-lived service actually sees).
    # No error swallowing here: this scenario is the PR's acceptance
    # criterion and CI hard-asserts it, so a broken pool must fail loudly.
    steady_passes = 2 if quick else 3
    SpecCC.clear_caches()  # forked workers must not inherit warm caches
    with WorkerPool(config=_config(), shards=4) as pool:
        startup = pool.ensure_started()

        start = time.perf_counter()
        tasks = pool.check_documents(documents)
        cold_seconds = time.perf_counter() - start
        payload = [json.dumps(task.data, sort_keys=True) for task in tasks]
        deterministic = deterministic and payload == canonical

        steady_seconds = 0.0
        for _ in range(steady_passes):
            start = time.perf_counter()
            tasks = pool.check_documents(documents)
            steady_seconds = time.perf_counter() - start  # last pass
            payload = [json.dumps(task.data, sort_keys=True) for task in tasks]
            deterministic = deterministic and payload == canonical

        steady_rate = _rate(len(documents), steady_seconds)
        results["pool"] = {
            "4": {
                "startup_seconds": startup,
                "cold": {
                    "seconds": cold_seconds,
                    "docs_per_sec": _rate(len(documents), cold_seconds),
                },
                "steady": {
                    "seconds": steady_seconds,
                    "docs_per_sec": steady_rate,
                    "passes": steady_passes,
                },
                "steady_speedup_vs_thread1": (
                    round(steady_rate / thread1_rate, 2)
                    if steady_rate and thread1_rate
                    else None
                ),
                "stats": pool.stats(),
            }
        }

    results["deterministic"] = deterministic
    return results


# --------------------------------------------------------- fault recovery
def fault_documents() -> List[Tuple[str, str]]:
    """The 13-document soak corpus (same size as the CI fault step):
    mostly consistent one-liners with a few contradictions mixed in."""
    documents = []
    for index in range(1, 14):
        if index % 4 == 0:
            text = (
                f"The pump {index} is started.\n"
                f"The pump {index} is not started.\n"
            )
        else:
            text = f"If the sensor {index} is active, the device {index} is started.\n"
        documents.append((f"doc{index}", text))
    return documents


def bench_fault_recovery(quick: bool) -> Dict[str, object]:
    """What supervised recovery costs: the same 13-document pass clean,
    with one injected worker crash (respawn + retry), and with the pool
    fully degraded to the in-process fallback path.  Every pass must stay
    byte-identical to the sequential reference."""
    from repro.service.faults import FaultPlan, FaultSpec
    from repro.service.supervision import SupervisionConfig

    documents = fault_documents()
    SpecCC.clear_caches()
    baseline = BatchChecker(config=_config(), workers=1).check_documents(documents)
    canonical = [json.dumps(result.data, sort_keys=True) for result in baseline]

    def run_pool(fault_plan, supervision):
        SpecCC.clear_caches()
        with WorkerPool(
            config=_config(),
            shards=2,
            supervision=supervision,
            fault_plan=fault_plan,
        ) as pool:
            pool.ensure_started()
            start = time.perf_counter()
            tasks = pool.check_documents(documents)
            seconds = time.perf_counter() - start
            payload = [json.dumps(task.data, sort_keys=True) for task in tasks]
            return seconds, payload == canonical, pool.stats()["supervision"]

    fast_backoff = dict(backoff_base=0.01, backoff_cap=0.05, seed=7)

    clean_seconds, clean_match, _ = run_pool(
        FaultPlan([]), SupervisionConfig(**fast_backoff)
    )

    # One worker crash mid-pass: the supervisor respawns the shard and
    # retries the lost document.
    crash_seconds, crash_match, crash_stats = run_pool(
        FaultPlan([FaultSpec(kind="crash", shard=0, task=2, max_spawn=0)], seed=7),
        SupervisionConfig(**fast_backoff),
    )

    # Degraded mode: the first task of every worker crashes and every
    # respawn dies during init, so the circuit breaker trips and the whole
    # corpus runs on the in-process fallback path.
    degraded_seconds, degraded_match, degraded_stats = run_pool(
        FaultPlan(
            [
                FaultSpec(kind="crash", task=0, times=-1),
                FaultSpec(kind="crash_init", min_spawn=1, times=-1),
            ],
            seed=7,
        ),
        SupervisionConfig(max_respawn_failures=1, **fast_backoff),
    )

    return {
        "documents": len(documents),
        "clean": {
            "seconds": clean_seconds,
            "docs_per_sec": _rate(len(documents), clean_seconds),
        },
        "one_crash": {
            "seconds": crash_seconds,
            "docs_per_sec": _rate(len(documents), crash_seconds),
            "added_latency_seconds": round(crash_seconds - clean_seconds, 4),
            "worker_deaths": crash_stats["worker_deaths"],
            "restarts": crash_stats["restarts"],
            "retries": crash_stats["retries"],
        },
        "degraded": {
            "seconds": degraded_seconds,
            "docs_per_sec": _rate(len(documents), degraded_seconds),
            "degraded_tasks": degraded_stats["degraded_tasks"],
            "circuit_open": degraded_stats["circuit_open"],
        },
        "byte_identical": clean_match and crash_match and degraded_match,
    }


# ---------------------------------------------------------------- recovery
def bench_recovery(quick: bool) -> Dict[str, object]:
    """Journal replay vs cold re-analysis after a crash.

    Phase 1 serves the 13-document corpus through journaled durable
    sessions (one token per document; ``load`` + check, then a few
    edit-and-recheck rounds of history; ``fsync="always"`` so the serve
    timing includes honest durability cost; compaction on).  Phase 2
    discards every cache and in-memory session — the crash — and times
    :meth:`JournalStore.recover` replaying every journal.  Phase 3 is
    the journal-less alternative: a cold server re-driven through each
    document's full edit history.  All three must acknowledge
    byte-identical final reports (``timings=False`` convention).
    Phases 1 and 3 drive one request core, one session per document
    (phase 1 ``attach``\ es each to its own durable token).
    """
    import asyncio
    import shutil
    import tempfile

    from repro.service.journal import JournalStore
    from repro.service.reportjson import report_to_dict

    documents = fault_documents()
    edit_rounds = 2 if quick else 4

    def history(index: int, text: str) -> List[dict]:
        """One client's requests for document *index*: load + check, then
        the paper's maintenance loop — the same requirement updated and
        re-checked every round.  Each round's sentence is unique (the
        subject carries the round number), so every intermediate version
        costs a real component analysis: exactly the work a snapshot
        makes the replay path skip and the cold path pay again."""
        requests: List[dict] = [
            {"op": "load", "document": text},
            {"op": "check", "timings": False},
        ]
        for round_ in range(1, edit_rounds + 1):
            requests.append(
                {
                    "op": "add" if round_ == 1 else "update",
                    "id": "E0",
                    "text": (
                        f"If the relay {index * 10 + round_} is closed, "
                        f"the alarm {index} is sounded."
                    ),
                }
            )
            requests.append({"op": "check", "timings": False})
        return requests

    def final_report(session) -> str:
        return json.dumps(
            report_to_dict(session.last_report.report, timings=False),
            sort_keys=True,
        )

    def serve_histories(server: AsyncSpecServer, attach: bool) -> Dict[str, str]:
        """Every document's history through *server*; name -> the last
        acknowledged report."""

        async def drive() -> Dict[str, str]:
            reports: Dict[str, str] = {}
            for index, (name, text) in enumerate(documents, start=1):
                if attach:
                    await server.handle_request(
                        {"op": "attach", "token": name, "session": name}
                    )
                for rid, request in enumerate(history(index, text), start=1):
                    last = await server.handle_request(
                        dict(request, rid=rid, session=name)
                    )
                reports[name] = json.dumps(last["report"], sort_keys=True)
            return reports

        return asyncio.run(drive())

    workdir = Path(tempfile.mkdtemp(prefix="bench-journal-"))
    try:
        # Phase 1: journaled serving (the durability tax is in this number).
        SpecCC.clear_caches()
        # compact_every lands the (single) compaction exactly on each
        # history's final check, so every journal collapses to one
        # snapshot: replay re-analyses only each document's *final*
        # state, never the superseded intermediate versions.
        store = JournalStore(
            workdir, fsync="always", compact_every=2 * edit_rounds + 2
        )
        start = time.perf_counter()
        reference = serve_histories(
            AsyncSpecServer(SpecCC(_config()), journal_store=store), attach=True
        )
        serve_seconds = time.perf_counter() - start
        serve_counters = store.counters()
        store.close()

        # Phase 2: the crash, then recovery by journal replay.
        SpecCC.clear_caches()
        recovery_store = JournalStore(workdir, fsync="always")
        start = time.perf_counter()
        recovered = recovery_store.recover(SpecCC(_config()))
        recovery_seconds = time.perf_counter() - start
        replay_match = len(recovered) == len(documents) and all(
            final_report(durable.session) == reference[token]
            for token, durable in recovered.items()
        )
        recovery_counters = recovery_store.counters()
        recovery_store.close()

        # Phase 3: the crash again, recovered the only way a journal-less
        # service can — every client re-drives its whole edit history.
        SpecCC.clear_caches()
        start = time.perf_counter()
        cold = serve_histories(AsyncSpecServer(SpecCC(_config())), attach=False)
        cold_seconds = time.perf_counter() - start
        cold_match = cold == reference
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "documents": len(documents),
        "edit_rounds": edit_rounds,
        "serve": {
            "seconds": serve_seconds,
            "fsync": "always",
            "appends": serve_counters["appends"],
            "fsyncs": serve_counters["fsyncs"],
            "compactions": serve_counters["compactions"],
        },
        "replay": {
            "seconds": recovery_seconds,
            "recovered_sessions": recovery_counters["recovered_sessions"],
            "replayed_records": recovery_counters["replayed_records"],
            "truncated_tails": recovery_counters["truncated_tails"],
        },
        "cold": {"seconds": cold_seconds},
        "speedup": (
            round(cold_seconds / recovery_seconds, 2)
            if recovery_seconds > 0
            else None
        ),
        "byte_identical": replay_match and cold_match,
    }


# ------------------------------------------------------- multiplexed serve
def client_script(client: int) -> List[dict]:
    """One client session's requests, over a client-private variable pool."""
    return [
        {
            "op": "add",
            "id": "R1",
            "text": f"If the sensor {client} is active, the device {client} is started.",
        },
        {
            "op": "add",
            "id": "R2",
            "text": f"If the button {client} is pressed, the lamp {client} is activated.",
        },
        {"op": "check", "timings": False},
        {
            "op": "update",
            "id": "R1",
            "text": f"If the sensor {client} is normal, the device {client} is started.",
        },
        {"op": "check", "timings": False},
    ]


def canonical_response(response: dict) -> str:
    """Canonical bytes of a response minus the protocol's volatile fields
    (one shared :func:`repro.service.server.normalize_response`, so this
    comparison and the test suite's cannot drift apart)."""
    from repro.service.server import normalize_response

    return json.dumps(normalize_response(response), sort_keys=True)


def bench_async_serve(quick: bool) -> Dict[str, object]:
    clients = 8
    scripts = {f"c{index}": client_script(index) for index in range(clients)}

    # Interleave the clients' requests round-robin on one stream.
    interleaved: List[str] = []
    for step in range(max(len(s) for s in scripts.values())):
        for name, script in scripts.items():
            if step < len(script):
                interleaved.append(
                    json.dumps({**script[step], "session": name, "rid": step})
                )
    interleaved.append(json.dumps({"op": "shutdown"}))

    SpecCC.clear_caches()
    out = io.StringIO()
    start = time.perf_counter()
    serve(
        io.StringIO("\n".join(interleaved) + "\n"),
        out,
        server=AsyncSpecServer(SpecCC(_config())),
    )
    seconds = time.perf_counter() - start
    requests = len(interleaved)

    by_session: Dict[str, List[dict]] = {name: [] for name in scripts}
    for line in out.getvalue().splitlines():
        response = json.loads(line)
        if response.get("session") in by_session:
            by_session[response["session"]].append(response)
    for responses in by_session.values():  # arrival order == rid order
        responses.sort(key=lambda r: r["rid"])

    # Reference: each session served alone.
    responses_match = True
    for name, script in scripts.items():
        SpecCC.clear_caches()
        reference_out = io.StringIO()
        serve(
            io.StringIO("\n".join(json.dumps(r) for r in script) + "\n"),
            reference_out,
            server=AsyncSpecServer(SpecCC(_config())),
        )
        reference = [
            canonical_response(json.loads(line))
            for line in reference_out.getvalue().splitlines()
        ]
        got = [canonical_response(response) for response in by_session[name]]
        responses_match = responses_match and got == reference

    return {
        "clients": clients,
        "requests": requests,
        "seconds": seconds,
        "requests_per_sec": _rate(requests, seconds),
        "responses_match": responses_match,
    }


def build_report(quick: bool) -> Dict:
    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "edit_loop": bench_edit_loop(quick),
        "batch": bench_batch(quick),
        "fault_recovery": bench_fault_recovery(quick),
        "async_serve": bench_async_serve(quick),
        "recovery": bench_recovery(quick),
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_service.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes/worker counts for CI smoke runs",
    )
    args = parser.parse_args(argv)

    report = build_report(quick=args.quick)
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    loop = report["edit_loop"]
    print(
        f"edit_loop: {loop['requirements']} reqs x {loop['edits']} edits  "
        f"incremental {loop['incremental_seconds']:.3f}s  "
        f"fresh {loop['fresh_seconds']:.3f}s  "
        f"speedup {loop['speedup']}x  "
        f"(<= {loop['max_components_reanalyzed_per_edit']} components/edit)"
    )
    for workers, data in sorted(report["batch"]["thread"].items()):
        print(
            f"batch[thread x{workers}]: {data['seconds']:.3f}s  "
            f"{data['docs_per_sec']} docs/s"
        )
    pool = report["batch"].get("pool", {})
    for workers, data in sorted(pool.items()):
        if workers != "error":
            print(
                f"batch[pool x{workers}]: startup {data['startup_seconds']:.3f}s  "
                f"cold {data['cold']['docs_per_sec']} docs/s  "
                f"steady {data['steady']['docs_per_sec']} docs/s  "
                f"({data['steady_speedup_vs_thread1']}x thread x1, "
                f"worker hit rate {data['stats']['worker_cache']['hit_rate']})"
            )
    print(f"deterministic: {report['batch']['deterministic']}")
    fault = report["fault_recovery"]
    print(
        f"fault_recovery: clean {fault['clean']['docs_per_sec']} docs/s  "
        f"one-crash {fault['one_crash']['docs_per_sec']} docs/s "
        f"(+{fault['one_crash']['added_latency_seconds']}s, "
        f"{fault['one_crash']['restarts']} restart)  "
        f"degraded {fault['degraded']['docs_per_sec']} docs/s  "
        f"byte_identical: {fault['byte_identical']}"
    )
    async_serve = report["async_serve"]
    print(
        f"async_serve: {async_serve['clients']} clients  "
        f"{async_serve['requests']} requests in {async_serve['seconds']:.3f}s  "
        f"({async_serve['requests_per_sec']} req/s)  "
        f"responses_match: {async_serve['responses_match']}"
    )
    recovery = report["recovery"]
    print(
        f"recovery: serve {recovery['serve']['seconds']:.3f}s "
        f"({recovery['serve']['appends']} appends, "
        f"{recovery['serve']['compactions']} compactions)  "
        f"replay {recovery['replay']['seconds']:.3f}s "
        f"({recovery['replay']['replayed_records']} records)  "
        f"cold {recovery['cold']['seconds']:.3f}s  "
        f"speedup {recovery['speedup']}x  "
        f"byte_identical: {recovery['byte_identical']}"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
