"""Paired speed gates: five timing properties, each gated on a median.

Every gate times two sides of one workload back to back, ``PAIRS``
times, alternating which side runs first, so a load spike on the host
lands on both sides of one pair rather than on one side of the
comparison.  It prints both sides' median seconds plus the median and
interquartile range of the per-pair ratios, and fails when that median
misses its threshold:

* semantics: fresh per-edit checks / incremental semantic edits, > 1;
* edit loop: fresh per-edit checks / the session edit loop, > 1;
* pool: one cold in-process pass / a 4-shard pool's steady pass, >= 2;
* recovery: a cold re-drive of the 13 histories / journal replay, > 1;
* tracing: traced vs untraced cold pass over the 13 CARA component
  documents, overhead < 20%.

These are regression gates, not numbers of record: ``perfbench/run.py``
(declared in ``BENCHMARK.json``) is the one source of performance
numbers.  The recovery gate journals into a temporary directory that is
removed afterwards; nothing else touches the disk.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/speed_gates.py
"""

from __future__ import annotations

import operator
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import SpecCC, SpecCCConfig, SpecSession, TranslationOptions  # noqa: E402
from repro.casestudies import component_requirements  # noqa: E402
from repro.obs.trace import Tracer, set_process_tracer  # noqa: E402
from repro.service.batch import BatchChecker  # noqa: E402
from repro.service.pool import WorkerPool  # noqa: E402

import soak_corpus  # noqa: E402

PAIRS = 21

Requirements = List[Tuple[str, str]]


def _config() -> SpecCCConfig:
    return SpecCCConfig(translation=TranslationOptions(next_as_x=False))


def _cold_tool() -> SpecCC:
    SpecCC.clear_caches()
    return SpecCC(_config())


def _timed(action: Callable[[], object]) -> float:
    start = time.perf_counter()
    action()
    return time.perf_counter() - start


def paired(
    first: Callable[[], float], second: Callable[[], float]
) -> Tuple[List[float], List[float]]:
    """``PAIRS`` adjacent runs of each side, alternating which runs first.
    Each side does its own untimed setup and returns its timed seconds."""
    a: List[float] = []
    b: List[float] = []
    for index in range(PAIRS):
        if index % 2 == 0:
            a.append(first())
            b.append(second())
        else:
            b.append(second())
            a.append(first())
    return a, b


PASSES = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


def gate(
    name: str,
    sides: Tuple[str, str],
    times: Tuple[List[float], List[float]],
    ratios: List[float],
    threshold: Tuple[str, float],
) -> bool:
    """Print one gate's line; whether the median ratio passes
    ``median <op> bound`` for *threshold* ``(op, bound)``."""
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    op, bound = threshold
    ok = PASSES[op](median, bound)
    print(
        f"{name:<9} {sides[0]} {statistics.median(times[0]) * 1e3:6.1f} ms  "
        f"{sides[1]} {statistics.median(times[1]) * 1e3:6.1f} ms  "
        f"median {median:6.2f}  IQR {q3 - q1:5.2f}  "
        f"(gate {op} {bound:g})  {'ok' if ok else 'FAILED'}"
    )
    return ok


# --------------------------------------------------------------- edit loops
def sensor(index: int, adjective: str = "active") -> Tuple[str, str]:
    return (
        f"A{index}",
        f"If the sensor {index} is {adjective}, the device {index} is started.",
    )


def semantic_workload(groups: int) -> Requirements:
    """2 * *groups* sentences: each group's subject carries an antonym
    pair, so Algorithm 1 forms one analysis unit per group."""
    requirements = []
    for group in range(1, groups + 1):
        requirements.append(sensor(group))
        requirements.append(
            (
                f"B{group}",
                f"If the sensor {group} is inactive, the device {group} is stopped.",
            )
        )
    return requirements


def component_workload(size: int) -> Requirements:
    """*size* single-requirement components over disjoint variables."""
    return [sensor(index) for index in range(1, size + 1)]


def edits(size: int, count: int) -> Requirements:
    """*count* single-sentence edits striding through *size* subjects."""
    return [
        sensor((edit * 7) % size + 1, "active" if edit % 2 else "normal")
        for edit in range(count)
    ]


def edit_loop_gate(
    name: str, requirements: Requirements, sequence: Requirements
) -> bool:
    """One long-lived session re-checked after every edit against a cold
    full check per edit (what the one-shot CLI costs)."""

    def incremental() -> float:
        session = SpecSession(_cold_tool())
        for identifier, sentence in requirements:
            session.add(identifier, sentence)
        session.check()

        def loop() -> None:
            for identifier, sentence in sequence:
                session.update(identifier, sentence)
                session.check()

        return _timed(loop)

    def fresh() -> float:
        def loop() -> None:
            state = dict(requirements)
            for identifier, sentence in sequence:
                state[identifier] = sentence
                _cold_tool().check(list(state.items()))

        return _timed(loop)

    times = paired(incremental, fresh)
    ratios = [f / i for i, f in zip(*times)]
    return gate(name, ("session", "fresh"), times, ratios, (">", 1))


# --------------------------------------------------------------------- pool
def cara_documents() -> List[Tuple[str, Requirements]]:
    """The 13 CARA Table I component documents."""
    return [
        (f"cara-{row}", list(requirements))
        for row, requirements in sorted(component_requirements().items())
    ]


def pool_gate() -> bool:
    documents = cara_documents()
    SpecCC.clear_caches()  # forked workers must not inherit warm caches
    with WorkerPool(config=_config(), shards=4) as pool:
        pool.check_documents(documents)  # the cold pass warms the workers

        def in_process() -> float:
            SpecCC.clear_caches()
            checker = BatchChecker(config=_config(), workers=1)
            return _timed(lambda: checker.check_documents(documents))

        def steady() -> float:
            return _timed(lambda: pool.check_documents(documents))

        times = paired(in_process, steady)
    ratios = [cold / warm for cold, warm in zip(*times)]
    return gate("pool", ("cold x1", "pool x4"), times, ratios, (">=", 2))


# ----------------------------------------------------------------- recovery
def recovery_gate() -> bool:
    with tempfile.TemporaryDirectory(prefix="speed-gates-") as directory:
        soak_corpus.journal_histories(Path(directory))
        times = paired(
            lambda: _timed(lambda: soak_corpus.replay(Path(directory))),
            lambda: _timed(soak_corpus.redrive),
        )
    ratios = [cold / replayed for replayed, cold in zip(*times)]
    return gate("recovery", ("replay", "re-drive"), times, ratios, (">", 1))


# ------------------------------------------------------------------ tracing
def tracing_gate() -> bool:
    documents = [requirements for _, requirements in cara_documents()]

    def untraced() -> float:
        tool = _cold_tool()
        return _timed(lambda: [tool.check(document) for document in documents])

    def traced() -> float:
        tracer = Tracer(name="speed-gate")
        previous = set_process_tracer(tracer)
        try:
            return untraced()
        finally:
            set_process_tracer(previous)

    times = paired(untraced, traced)
    overheads = [(t / u - 1.0) * 100.0 for u, t in zip(*times)]
    return gate("tracing%", ("untraced", "traced"), times, overheads, ("<", 20))


def main() -> int:
    print(f"{PAIRS} alternating pairs per gate; ratios are per pair")
    results = [
        edit_loop_gate("semantics", semantic_workload(20), edits(20, 10)),
        edit_loop_gate("edit loop", component_workload(40), edits(40, 12)),
        pool_gate(),
        recovery_gate(),
        tracing_gate(),
    ]
    if all(results):
        print("speed gates passed")
        return 0
    print(f"{results.count(False)} speed gate(s) FAILED")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
