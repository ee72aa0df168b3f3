#!/usr/bin/env python3
"""Benchmark of record for the SpecCC reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0

Workloads (closed loop, one client; see perfbench/README.md for why each
exists): ``table1`` (the paper's 22 Table I documents, caches cleared before
each), ``regimes`` (distinct generated documents in five verdict regimes,
one long-lived ``SpecCC``) and ``maintain`` (an edit/re-check script driven
through ``python -m repro serve`` over stdio).

Every check is compared with the answer key built with the inputs
(perfbench/corpus.py).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (a
traced half window plus an untraced replay of the same work, which gives
``trace.overhead_pct``).  The line before it records the host (core
count, Python version, seed, the calibration loop's times) and the sample
counts behind the figures.

Timings are in reference-host seconds: every timed piece of work runs
between two calibration loops, and its wall time is scaled by how much
slower than on the reference host the loops ran (:class:`HostSpeed`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracer as layer_tracer  # noqa: E402

WORKLOADS = ("table1", "regimes", "maintain")

#: Cold starts per run, spread evenly over it; ``setup_s`` is their median.
SETUP_STARTS = 15

#: Steps of the calibration loop run before and after each timed piece of
#: work, and its time on a quiet host (a 2-core Xeon VM under Python
#: 3.11): the host speed every timing is scaled to.
CALIBRATION_STEPS = 4_000
REFERENCE_SECONDS = 0.001

#: While the work runs, a short calibration loop every ``TICK_SECONDS``.
TICK_SECONDS = 0.02
TICK_STEPS = 800

#: Units whose checking process gives ``peak_rss_mb``.  Long-lived caches
#: grow with every distinct document, so RSS is read after a fixed amount
#: of work (every run completes at least this many units); otherwise a
#: faster checker would read as a bigger one.
RSS_UNITS = {"table1": 2, "regimes": 10, "maintain": 10}

#: The rungs a component verdict can come from (``ComponentResult.method``).
RUNGS = ("obligations", "satisfiability", "validity", "game", "bounded", "too-large")

Metric = Tuple[float, str]


# ---------------------------------------------------------------- helpers
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks (0 <= q <= 1)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def calibration(steps: int) -> float:
    """Seconds a fixed loop of *steps* steps takes now.

    Each step stores a new list under a new tuple key in a dict that is
    dropped every 512 entries, so the loop allocates and frees small
    objects as the checker does.  The garbage collector is off meanwhile:
    a collection would traverse the checker's heap, so its time would
    depend on the checker and not only on the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        live: dict = {}
        for index in range(steps):
            live[(index, index & 31)] = [index, (index,)]
            if len(live) > 512:
                live = {}
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibration_ms() -> float:
    """The median of nine calibration loops, in ms, for the host line."""
    return statistics.median(calibration(CALIBRATION_STEPS) for _ in range(9)) * 1000


class HostSpeed:
    """Times one piece of work in reference-host seconds.

    The host shares its cores with other tenants, whose load slows the
    core by up to 1.8x, at times for under a second and at times for many
    minutes, so a run cannot wait the load out.  A calibration loop slows
    with the checker.  So ``with HostSpeed() as timed:`` runs the loop on
    entry and on exit, and a short one every ``TICK_SECONDS`` while the
    work inside runs (from a timer signal).  ``timed.wall`` is the wall
    time of the work, and ``timed.seconds`` is that time less the ticks,
    scaled by how much slower than on the reference host the loops ran.

    Why a loop that allocates: other tenants' load slows the checker's
    object churn more than arithmetic.  On a 2-core host, cold checks of
    two Table I documents were timed in 10 s spells of varying load.
    Scaled by an arithmetic loop, the spells' mean times still varied by
    3-5% (coefficient of variation; 9-16% unscaled); scaled by this loop,
    by 2-5% (perfbench/README.md has the sessions).  Ticks help long
    checks: for a ~1 s document the checks scaled by arithmetic loops
    spread 13% between their quartiles with the loops before and after
    alone, and 8% with ticks.  The loop is the benchmark's own code, so no
    change to the checker moves it.

    :meth:`stop` ends the timed work early, for work whose tail (a child
    process exiting) is not to be timed.
    """

    def __enter__(self) -> "HostSpeed":
        self.steps = 0
        self.loop_seconds = 0.0
        self.tick_seconds = 0.0
        self.wall: Optional[float] = None
        self._loop(CALIBRATION_STEPS)
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)
        self.start = time.perf_counter()
        return self

    def _loop(self, steps: int) -> None:
        self.loop_seconds += calibration(steps)
        self.steps += steps

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._loop(TICK_STEPS)
        self.tick_seconds += time.perf_counter() - start

    def stop(self) -> None:
        if self.wall is None:
            self.wall = time.perf_counter() - self.start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
            self.work = self.wall - self.tick_seconds

    def __exit__(self, *exc_info) -> None:
        self.stop()
        self._loop(CALIBRATION_STEPS)

    @property
    def seconds(self) -> float:
        reference = REFERENCE_SECONDS / CALIBRATION_STEPS * self.steps
        return self.work * reference / self.loop_seconds


def pin_to_one_core() -> None:
    """Keep this process and its children on one core.

    The checker is single-threaded and the one client waits for each
    reply, so one core loses no work; and the calibration loop then times
    the core that runs the checker, also when a child (``serve``, a cold
    start) does the checking.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size so far of a live process (Linux ``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def paper_tool():
    """SpecCC as the paper's prototype and ``repro check``/``serve`` run it."""
    from repro import SpecCC, SpecCCConfig, TranslationOptions

    return SpecCC(SpecCCConfig(translation=TranslationOptions(next_as_x=False)))


def cold_start() -> float:
    """Reference seconds from spawning a fresh interpreter to a ready checker."""
    with HostSpeed() as timed, subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "setup"],
        stdout=subprocess.PIPE,
        env=child_env(),
        text=True,
    ) as child:
        line = child.stdout.readline()
        timed.stop()
        child.stdout.read()
        if child.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return timed.seconds


class SetupSamples:
    """Cold starts spread evenly over the run, and ``setup_s`` from them.

    ``SETUP_STARTS`` cold starts, each in reference seconds, are taken at
    even intervals, and ``setup_s`` is their median.
    """

    def __init__(self, probe: Callable[[], float], seconds: float) -> None:
        self.probe = probe
        self.seconds = seconds
        self.start = time.perf_counter()
        self.starts: List[float] = []

    def due(self) -> None:
        """Take the cold starts whose time has come (call between units)."""
        elapsed = time.perf_counter() - self.start
        while (
            len(self.starts) < SETUP_STARTS
            and elapsed >= len(self.starts) * self.seconds / SETUP_STARTS
        ):
            self.starts.append(self.probe())

    def median(self) -> float:
        while len(self.starts) < SETUP_STARTS:
            self.starts.append(self.probe())
        return statistics.median(self.starts)


class Tally:
    """Answer checking and verdict attribution across one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.decided_by: Counter = Counter()
        self.repairs = 0
        self.mismatches: List[str] = []
        #: Every check's (verdict, repairs, culprits), in order.
        self.outcomes: List[tuple] = []

    def check(self, label: str, expected: corpus.Expected, verdict, repairs, culprits, methods) -> None:
        self.attempted += 1
        self.repairs += repairs
        self.decided_by.update(methods)
        got = (verdict, repairs, tuple(sorted(culprits)))
        self.outcomes.append(got)
        if got != (expected.verdict, expected.repairs, expected.culprits):
            self.wrong += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(f"{label}: got {got}, expected {expected}")

    def check_report(self, label: str, expected: corpus.Expected, report) -> None:
        """An in-process ``ConsistencyReport``."""
        self.check(
            label,
            expected,
            report.verdict.value,
            report.repair_attempts,
            report.inconsistent_requirements(),
            [part.method for part in report.realizability.components],
        )

    def check_dict(self, label: str, expected: corpus.Expected, data: dict) -> None:
        """A canonical report dict (``reportjson.report_to_dict``)."""
        if data.get("verdict") == "error":
            self.error(label, data["error"]["message"])
            return
        self.check(
            label,
            expected,
            data["verdict"],
            data["repair_attempts"],
            data["culprits"],
            [component["method"] for component in data["components"]],
        )

    def error(self, label: str, message: str) -> None:
        self.attempted += 1
        self.errors += 1
        self.outcomes.append(("error",))
        if len(self.mismatches) < 5:
            self.mismatches.append(f"{label}: error {message}")

    @property
    def failed(self) -> int:
        return self.wrong + self.errors

    def replayed(self, reference: "Tally") -> None:
        """Require the untraced replay *reference* to match these answers."""
        if reference.outcomes != self.outcomes:
            self.wrong += 1
            self.mismatches.append("traced and untraced verdicts differ")


def rung_metrics(tally: Tally) -> Dict[str, Metric]:
    metrics = {f"decided_by.{rung}": (tally.decided_by.get(rung, 0), "count") for rung in RUNGS}
    metrics["core.repair_attempts"] = (tally.repairs, "count")
    return metrics


def median_per_slot(units: Sequence[Tuple[float, Dict[str, float]]]) -> Dict[str, float]:
    """Each slot's median sample across the units (see :func:`unit_metrics`)."""
    return {
        slot: statistics.median(latencies[slot] for _, latencies in units)
        for slot in units[0][1]
    }


def unit_metrics(units: Sequence[Tuple[float, Dict[str, float]]]) -> Dict[str, Metric]:
    """Throughput and latency from the units of a run.

    A unit (a Table I pass, a corpus block, an edit block) is ``(busy wall
    seconds, {slot: reference seconds})``; every unit of a workload has
    the same slots (a Table I document, a regime and size, an edit step),
    filled with fresh inputs of the same shape, one after another.  A
    slot's time is its median sample across the units; ``doc_p50_ms`` and
    ``doc_p90_ms`` are percentiles of those across slots, and
    ``docs_per_s`` is the slots over the sum of those times.  So every
    slot weighs the same in every run, however many samples it got.
    """
    medians = list(median_per_slot(units).values())
    return {
        "docs_per_s": (len(medians) / sum(medians), "docs/s"),
        "doc_p50_ms": (percentile(medians, 0.5) * 1000, "ms"),
        "doc_p90_ms": (percentile(medians, 0.9) * 1000, "ms"),
    }


def samples(units: Sequence[Tuple[float, Dict[str, float]]]) -> Dict[str, int]:
    """The sample counts behind :func:`unit_metrics`, for the host line."""
    return {"slots": len(units[0][1]), "samples_per_slot": len(units)}


def share_metrics(
    units: Sequence[Tuple[float, Dict[str, float]]], kind_of: Callable[[str], str]
) -> Dict[str, Metric]:
    """``share.<regime>.time_pct``: the share of checking time per regime.

    The mixes are coverage mixes (see corpus.py), so these say what the
    end-to-end figures weight.  *kind_of* maps a slot to its regime.
    """
    spent = Counter()
    for _, latencies in units:
        for slot, seconds in latencies.items():
            spent[kind_of(slot)] += seconds
    total = sum(spent.values())
    return {
        f"share.{regime}.time_pct": (100.0 * spent[regime] / total, "%")
        for regime in corpus.REGIMES
    }


def engine_counters(before: dict, after: dict) -> Dict[str, int]:
    """Component-cache and SAT counter deltas between two cache_stats()."""
    return {
        "hits": after["component_cache"]["hits"] - before["component_cache"]["hits"],
        "misses": after["component_cache"]["misses"] - before["component_cache"]["misses"],
        "conflicts": after["synthesis"]["sat_conflicts"] - before["synthesis"]["sat_conflicts"],
        "propagations": after["synthesis"]["sat_propagations"] - before["synthesis"]["sat_propagations"],
    }


def counter_metrics(counters: Counter) -> Dict[str, Metric]:
    lookups = counters["hits"] + counters["misses"]
    return {
        "component_cache.hit_ratio": (counters["hits"] / lookups if lookups else 0.0, "ratio"),
        "sat.conflicts": (counters["conflicts"], "count"),
        "sat.propagations": (counters["propagations"], "count"),
    }


def trace_metrics(
    table: dict, traced_wall: float, explained: float, traced_units, untraced_units
) -> Dict[str, Metric]:
    """Layer metrics, coverage of *traced_wall*, and the tracing overhead.

    The overhead compares the same slots traced and untraced, each at its
    median sample, as the end-to-end metrics do.
    """
    metrics = layer_tracer.layer_metrics(table)
    metrics["trace.coverage_pct"] = (100.0 * explained / traced_wall, "%")
    traced = sum(median_per_slot(traced_units).values())
    untraced = sum(median_per_slot(untraced_units).values())
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    return metrics


# ------------------------------------------------------------- in-process
def table1_documents():
    """(label, requirements, expected) for the 22 Table I documents."""
    from repro.casestudies import (
        INITIALLY_FAILING_ROWS,
        TABLE_INSTANCES,
        application_requirements,
        component_requirements,
        mode_switching_requirements,
        robot_requirements,
    )

    clean = corpus.Expected("realizable", 0)
    documents = [("cara-0", mode_switching_requirements(), clean)]
    documents += [(f"cara-{row}", reqs, clean) for row, reqs in sorted(component_requirements().items())]
    documents += [
        # The paper: TELEPROMISE rows 4 and 5 fail until one partition repair.
        (f"tele-{row}", reqs, corpus.Expected("realizable", 1 if row in INITIALLY_FAILING_ROWS else 0))
        for row, reqs in sorted(application_requirements().items())
    ]
    documents += [
        (f"robot-{row}", robot_requirements(*TABLE_INSTANCES[row]), clean)
        for row in sorted(TABLE_INSTANCES)
    ]
    assert len(documents) == 22
    return documents


def run_checks(
    tool, unit, tally: Tally, cold: bool, counters: Optional[Counter] = None
) -> Tuple[float, Dict[str, float]]:
    """Check every document of *unit*; return ``(busy wall seconds,
    {slot: reference seconds})``.

    *counters*, when given, accumulates engine counters per document (cold
    runs reset them with the caches, so they are read around each check).
    """
    busy = 0.0
    latencies = {}
    for slot, label, requirements, expected in unit:
        if cold:
            tool.clear_caches()
            tool.clear_translation_cache()
        before = tool.cache_stats() if counters is not None else None
        with HostSpeed() as timed:
            try:
                report = tool.check(requirements)
            except Exception as error:  # noqa: BLE001 - counted, run goes on
                report = error
        busy += timed.wall
        latencies[slot] = timed.seconds
        if isinstance(report, Exception):
            tally.error(label, repr(report))
            continue
        if counters is not None:
            counters.update(engine_counters(before, tool.cache_stats()))
        tally.check_report(label, expected, report)
    return busy, latencies


class Window:
    """Draw units until *seconds* have passed, but at least *minimum*.

    *between* runs before each decision, i.e. between units.
    """

    def __init__(
        self, seconds: float, minimum: int = 1, between: Optional[Callable[[], None]] = None
    ) -> None:
        self.end = time.perf_counter() + seconds
        self.minimum = minimum
        self.between = between

    def more(self, done: int) -> bool:
        if self.between is not None:
            self.between()
        return done < self.minimum or time.perf_counter() < self.end


def in_process(
    args, units: Callable[[], object], cold: bool, kind_of: Callable[[str], str]
) -> dict:
    """``table1`` and ``regimes``: one long-lived paper-configured SpecCC."""
    tool = paper_tool()
    tool.prewarm()
    source = units()
    tracer = layer_tracer.LayerTracer().install() if args.trace else None
    tally = Tally()
    counters = Counter() if args.trace else None
    done, measured = [], []
    rss_units = RSS_UNITS[args.workload]
    rss = None
    if args.trace:
        window = Window(args.seconds / 2)
    else:
        setup = SetupSamples(cold_start, args.seconds)
        window = Window(args.seconds, rss_units, between=setup.due)
    while window.more(len(done)):
        unit = next(source)
        done.append(unit)
        measured.append(run_checks(tool, unit, tally, cold, counters))
        if len(done) == rss_units:
            rss = peak_rss_mb(os.getpid())
    if tracer is None:
        metrics = {"setup_s": (setup.median(), "s")}
        metrics.update(unit_metrics(measured))
        metrics["peak_rss_mb"] = (rss, "MB")
        return {"tally": tally, "metrics": metrics, "samples": samples(measured)}
    table = tracer.table()
    tracer.uninstall()
    # The untraced replay of the same documents from equally cold caches.
    tool.clear_caches()
    tool.clear_translation_cache()
    reference = Tally()
    replay = [run_checks(tool, unit, reference, cold) for unit in done]
    tally.replayed(reference)
    metrics = trace_metrics(
        table,
        sum(busy for busy, _ in measured),
        layer_tracer.explained_seconds(table),
        measured,
        replay,
    )
    metrics.update(rung_metrics(tally))
    metrics.update(counter_metrics(counters))
    metrics.update(share_metrics(replay, kind_of))
    return {"tally": tally, "metrics": metrics, "samples": samples(measured)}


def table1(args) -> dict:
    documents = [(label, label, reqs, expected) for label, reqs, expected in table1_documents()]
    kinds = {label: corpus.answer_class(expected) for label, _, _, expected in documents}

    def passes():
        order = random.Random(f"table1:{args.seed}")
        while True:
            shuffled = list(documents)
            order.shuffle(shuffled)
            yield shuffled

    return in_process(args, passes, cold=True, kind_of=kinds.__getitem__)


def slot_of(document: corpus.Document) -> str:
    """A document's slot in its block: regime and size are unique there."""
    return f"{document.regime}-{len(document.requirements)}"


def regimes(args) -> dict:
    def blocks():
        for block in corpus.regimes_blocks(args.seed):
            yield [(slot_of(doc), doc.name, list(doc.requirements), doc.expected) for doc in block]

    return in_process(
        args, blocks, cold=False, kind_of=lambda slot: slot.rsplit("-", 1)[0]
    )


# ------------------------------------------------------------------ serve
class ServeClient:
    """One JSON-lines client of ``python -m repro serve`` over stdio."""

    def __init__(self, traced: bool) -> None:
        if traced:
            command = [sys.executable, str(HERE / "child.py"), "serve"]
        else:
            command = [sys.executable, "-m", "repro", "serve"]
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
            text=True,
            cwd=str(ROOT),
        )

    def request(self, payload: dict) -> dict:
        self.process.stdin.write(json.dumps(payload) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("serve exited: " + self.process.stderr.read()[-2000:])
        return json.loads(line)

    def close(self) -> str:
        """Shut the server down; return its stderr."""
        self.request({"op": "shutdown"})
        _, stderr = self.process.communicate(timeout=60)
        return stderr

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        """Kill the server if :meth:`close` was not reached; reap it."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=60)


def serve_cold_start() -> float:
    """Reference seconds from spawning ``serve`` to its answer to a first check.

    ``serve`` does not prewarm, so its first check pays the lazy imports;
    that check is the prewarm document of the in-process probe, sent
    through the protocol, so both probes time the same set-up work.
    """
    from repro import SpecCC

    with HostSpeed() as timed, ServeClient(traced=False) as client:
        for index, text in enumerate(SpecCC.PREWARM_SENTENCES, 1):
            client.request({"op": "add", "id": f"W{index}", "text": text})
        if not client.request({"op": "check"}).get("ok"):
            raise RuntimeError("serve did not answer its first check")
        timed.stop()
        client.close()
    return timed.seconds


class EditSession:
    """Drives one server through the base document and edit blocks.

    Units are ``(block wall seconds, {step: edit cycle reference
    seconds})``.  It also keeps the protocol seconds of every request
    (round trip, less the server-side ``seconds`` of a check), those of
    each edit's check, and the sum of all round trips.
    """

    def __init__(self, client: ServeClient, base, tally: Tally) -> None:
        self.client = client
        self.tally = tally
        self.units: List[Tuple[float, Dict[str, float]]] = []
        self.protocol: List[float] = []
        self.check_protocol: List[float] = []
        self.round_trips = 0.0
        for identifier, text in base:
            self._timed({"op": "add", "id": identifier, "text": text})
        initial = self._timed({"op": "check"})
        tally.check_dict("base", corpus.Expected("realizable", 0), initial["report"])

    def _timed(self, payload: dict) -> dict:
        sent = time.perf_counter()
        response = self.client.request(payload)
        elapsed = time.perf_counter() - sent
        self.round_trips += elapsed
        self.protocol.append(elapsed - (response.get("seconds") or 0.0))
        return response

    def run(self, blocks, more: Callable[[int], bool], done: Optional[List] = None) -> None:
        """Run *blocks* while ``more(units so far)``; record them in *done*."""
        for block in blocks:
            if done is not None:
                done.append(block)
            busy = 0.0
            latencies: Dict[str, float] = {}
            for step, edit in enumerate(block):
                label = f"block {len(self.units)} step {step} {edit.op} {edit.identifier}"
                request = {"op": edit.op, "id": edit.identifier}
                if edit.text is not None:
                    request["text"] = edit.text
                with HostSpeed() as timed:
                    ack = self._timed(request)
                    response = self._timed({"op": "check"})
                busy += timed.wall
                latencies[str(step)] = timed.seconds
                if not (ack.get("ok") and response.get("ok")):
                    self.tally.error(label, (ack if not ack.get("ok") else response).get("error", "?"))
                    continue
                self.check_protocol.append(self.protocol[-1])
                self.tally.check_dict(label, edit.expected, response["report"])
            self.units.append((busy, latencies))
            if not more(len(self.units)):
                return


def maintain(args) -> dict:
    script = corpus.maintain_script(args.seed)
    tally = Tally()
    if not args.trace:
        with ServeClient(traced=False) as client:
            session = EditSession(client, script.base, tally)
            setup = SetupSamples(serve_cold_start, args.seconds)
            window = Window(args.seconds, RSS_UNITS["maintain"], between=setup.due)
            rss: List[float] = []

            def more(done: int) -> bool:
                if done == RSS_UNITS["maintain"]:
                    rss.append(peak_rss_mb(client.process.pid))
                return window.more(done)

            session.run(script.blocks, more)
            client.close()
        metrics = {"setup_s": (setup.median(), "s")}
        metrics.update(unit_metrics(session.units))
        metrics["peak_rss_mb"] = (rss[0], "MB")
        return {"tally": tally, "metrics": metrics, "samples": samples(session.units)}
    first_block = next(corpus.maintain_script(args.seed).blocks)
    kinds = {str(step): corpus.answer_class(edit.expected) for step, edit in enumerate(first_block)}
    with ServeClient(traced=True) as traced_client:
        traced = EditSession(traced_client, script.base, tally)
        done: List = []
        traced.run(script.blocks, Window(args.seconds / 2).more, done)
        stats = traced_client.request({"op": "stats"})
        stderr = traced_client.close()
    marker = [line for line in stderr.splitlines() if line.startswith("LAYER_TABLE ")]
    table = json.loads(marker[-1][len("LAYER_TABLE "):])
    reference = Tally()
    with ServeClient(traced=False) as untraced_client:
        untraced = EditSession(untraced_client, script.base, reference)
        untraced.run(done, lambda _: True)
        untraced_client.close()
    tally.replayed(reference)
    # The traced wall time is every round trip of the session.  Covered:
    # the server's named layers plus the protocol layer (round trips less
    # the server-side check seconds), less report_to_dict, which runs
    # inside those round trips.
    explained = (
        layer_tracer.explained_seconds(table)
        + sum(traced.protocol)
        - table["self_s"]["service.report_to_dict"]
    )
    metrics = trace_metrics(table, traced.round_trips, explained, traced.units, untraced.units)
    metrics["service.protocol_ms"] = (percentile(traced.check_protocol, 0.5) * 1000, "ms")
    metrics.update(share_metrics(untraced.units, kinds.__getitem__))
    metrics.update(rung_metrics(tally))
    cache = stats["cache"]["component_cache"]
    synthesis = stats["synthesis"]
    metrics.update(
        counter_metrics(
            Counter(
                hits=cache["hits"],
                misses=cache["misses"],
                conflicts=synthesis["sat_conflicts"],
                propagations=synthesis["sat_propagations"],
            )
        )
    )
    return {"tally": tally, "metrics": metrics, "samples": samples(traced.units)}


# ------------------------------------------------------------------- main
RUNNERS = {
    "table1": table1,
    "regimes": regimes,
    "maintain": maintain,
}


def load_metrics(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


#: Per-layer metrics of layers a workload never reaches; they read 0.
OFF_PATH: Dict[str, Tuple[str, ...]] = {
    "table1": ("service.protocol_ms",),
    "regimes": ("service.protocol_ms",),
    "maintain": (),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no checker sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    host = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "reference_ms": REFERENCE_SECONDS * 1000,
    }
    pin_to_one_core()
    host["calibration_ms"] = calibration_ms()
    outcome = RUNNERS[args.workload](args)
    tally: Tally = outcome["tally"]
    units = load_metrics("per_layer" if args.trace else "end_to_end")
    metrics = outcome["metrics"]
    if args.trace:
        for name, unit in units.items():
            if name not in metrics and name.startswith(OFF_PATH[args.workload]):
                metrics[name] = (0, unit)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    host.update(
        outcome["samples"],
        wrong_verdicts=tally.wrong,
        error_share=tally.errors / tally.attempted,
        mismatches=tally.mismatches,
        calibration_after_ms=calibration_ms(),
    )
    print(json.dumps({"host": host}))
    for line in tally.mismatches:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
