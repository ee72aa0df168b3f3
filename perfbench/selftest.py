#!/usr/bin/env python3
"""Self-tests of the benchmark; run from the root of a checkout::

    python3 perfbench/selftest.py            # all checks (a few seconds)
    python3 perfbench/selftest.py --write    # regenerate answer_key.json

They check that the corpus is seeded (byte-identical per seed, different
across seeds), that vocabularies are disjoint across documents, that the
document sizes are the Table I quartiles, that the answer key agrees with
the checker on a short run, that the committed answer key still matches
the generator, that the tracer's self-time arithmetic is right on a
synthetic nested call, and that the host-speed timer ticks during the work
and leaves no timer behind.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracer  # noqa: E402

ANSWER_KEY = HERE / "answer_key.json"


def _corpus_bytes(seed: int) -> bytes:
    documents = corpus.regimes_corpus(seed, 3)
    script = corpus.maintain_script(seed)
    edits = [next(script.blocks) for _ in range(3)]
    return repr((documents, script.base, edits)).encode()


def test_seeded_corpus():
    assert _corpus_bytes(5) == _corpus_bytes(5)
    assert _corpus_bytes(5) != _corpus_bytes(6)


def test_vocabularies_disjoint():
    from repro import SpecCC
    from repro.logic.ast import atoms

    documents = corpus.regimes_corpus(11, 3)  # assert_disjoint runs inside
    tool = SpecCC()
    owner = {}
    for document in documents:
        translation = tool.translator.translate(list(document.requirements))
        for requirement in translation.requirements:
            for name in atoms(requirement.formula):
                assert owner.setdefault(name, document.name) == document.name, name


def test_sizes_are_table1_quartiles():
    import statistics

    import run

    sizes = [len(requirements) for _, requirements, _ in run.table1_documents()]
    quartiles = statistics.quantiles(sizes, n=4)
    assert corpus.SIZES == (round(quartiles[0]), round(quartiles[2])), quartiles


def _matches(expected: corpus.Expected, report) -> bool:
    got = (
        report.verdict.value,
        report.repair_attempts,
        tuple(sorted(report.inconsistent_requirements())),
    )
    return got == (expected.verdict, expected.repairs, expected.culprits)


def test_answer_key_agrees_with_checker():
    import run
    from repro.service.session import SpecSession

    tool = run.paper_tool()
    for label, requirements, expected in run.table1_documents():
        tool.clear_caches()
        tool.clear_translation_cache()
        assert _matches(expected, tool.check(requirements)), label
    for document in corpus.regimes_corpus(3, 1):
        assert _matches(document.expected, tool.check(list(document.requirements))), document.name
    script = corpus.maintain_script(3)
    session = SpecSession(tool)
    for identifier, text in script.base:
        session.add(identifier, text)
    assert session.check().report.consistent
    for step, edit in enumerate(next(script.blocks)):
        if edit.op == "update":
            session.update(edit.identifier, edit.text)
        elif edit.op == "add":
            session.add(edit.identifier, edit.text)
        else:
            session.remove(edit.identifier)
        assert _matches(edit.expected, session.check().report), (step, edit)


def test_committed_answer_key():
    committed = json.loads(ANSWER_KEY.read_text())
    assert committed == json.loads(json.dumps(corpus.answer_key())), (
        "answer_key.json is stale: rerun perfbench/selftest.py --write"
    )


def test_self_time_arithmetic():
    clock_value = [0.0]

    def clock():
        return clock_value[0]

    def advance(seconds):
        clock_value[0] += seconds

    layers = tracer.LayerTracer(clock=clock)

    def leaf():
        advance(2.0)

    def middle():
        advance(1.0)
        wrapped_leaf()
        advance(0.5)
        wrapped_leaf()

    def outer():
        advance(3.0)
        wrapped_middle()

    wrapped_leaf = layers.wrap("automata.satisfiable", leaf)
    wrapped_middle = layers.wrap("synthesis.component", middle)
    wrapped_outer = layers.wrap("core.check_translated", outer)
    wrapped_outer()
    wrapped_outer()
    table = layers.table()
    assert table["calls"]["core.check_translated"] == 2
    assert table["calls"]["synthesis.component"] == 2
    assert table["calls"]["automata.satisfiable"] == 4
    assert table["self_s"]["automata.satisfiable"] == 8.0
    assert table["self_s"]["synthesis.component"] == 3.0
    assert table["self_s"]["core.check_translated"] == 6.0
    # Self times partition the outermost calls' durations (2 x 8.5 s).
    assert tracer.explained_seconds(table) == 17.0
    # leaf() returns None, which the precheck counts as decisive (unsat).
    assert table["decisive"]["automata.satisfiable"] == 4


def test_host_speed_ticks_and_restores():
    import signal
    import time

    import run

    handler = signal.getsignal(signal.SIGALRM)
    with run.HostSpeed() as timed:
        time.sleep(0.2)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Two loops around the work, and ticks during it, less their time.
    assert timed.steps >= 2 * run.CALIBRATION_STEPS + 3 * run.TICK_STEPS, timed.steps
    assert 0.19 < timed.work < timed.wall, (timed.work, timed.wall)
    assert timed.seconds > 0


def test_tracer_install_roundtrip():
    from repro.translate import translator

    original = translator.parse_sentence
    layers = tracer.LayerTracer().install()
    try:
        assert translator.parse_sentence is not original
        from repro import SpecCC

        SpecCC().check([("R1", "If the zorbat valve is ready, the zorbat pump is started.")])
    finally:
        layers.uninstall()
    assert translator.parse_sentence is original
    table = layers.table()
    assert table["calls"]["nlp.parse"] >= 1
    assert table["calls"]["synthesis.obligations"] >= 1


def main(argv) -> int:
    if argv[1:] == ["--write"]:
        ANSWER_KEY.write_text(json.dumps(corpus.answer_key(), indent=1) + "\n")
        print(f"wrote {ANSWER_KEY}")
        return 0
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except Exception as error:  # noqa: BLE001 - report every test
            failures += 1
            print(f"FAIL {test.__name__}: {error!r}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
