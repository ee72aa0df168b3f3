"""Tests of the two caches behind incremental checking, and of
Algorithm 1's incremental attribution.

Three contracts matter:

* the component-outcome cache — one bounded, thread-safe LRU per process
  with exact hit/miss counters;
* the per-document translation cache — a warm translation equals a cold
  one, through any sequence of edits (including edits that change the
  theta set or the antonym pairs), under pruning, and from many threads;
* Algorithm 1 — production's loop, gated by primed words, must reproduce
  the algorithm as printed *exactly*, including the order-coupled
  ``wordset`` mutations (the ``online(w)`` memo is filled at most once
  per word, so pairing under one subject can mask lookups under a later
  subject), and its per-subject unit keys must capture those couplings.
"""

from __future__ import annotations

import json
import random
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro import SpecCC, SpecSession, Translator
from repro.logic.ast import Atom, Globally
from repro.nlp import parse_sentence
from repro.nlp.antonyms import DEFAULT_PAIRS, AntonymDictionary
from repro.nlp.dependencies import candidate_subjects, sentence_vocabulary
from repro.service.reportjson import report_to_dict
from repro.synthesis import invariants, realizability
from repro.translate import translator as translator_module
from repro.translate.semantics import (
    SemanticsDelta,
    _analyse_table,
    analyse,
    analyse_incremental,
)

from oracles.semantics import analyse_table_monolithic


class TestComponentCache:
    def check(self, index: int):
        name = f"lru_probe_{index}"
        return realizability.check_realizability([Globally(Atom(name))], [], [name])

    def test_lru_bound_recency_and_counts(self):
        realizability.clear_caches()
        capacity = realizability.COMPONENT_CACHE_CAPACITY
        for index in range(capacity):
            self.check(index)
        self.check(0)  # a hit refreshes the oldest entry ...
        self.check(capacity)  # ... so this insert evicts entry 1
        assert realizability.component_cache_info() == (
            capacity, capacity, 1, capacity + 1
        )
        self.check(0)
        self.check(1)
        assert realizability.component_cache_info()[2:] == (2, capacity + 2)
        realizability.clear_caches()
        assert realizability.component_cache_info() == (0, capacity, 0, 0)


#: Sentences for warm/cold scripts: timing constraints whose lengths
#: change the theta set and its mapping, antonym pairs whose presence
#: changes other sentences' propositions (available/unavailable/lost,
#: valid/invalid, on/off), and an unsatisfiable pair for localization.
POOL = (
    "If the button is pressed, the door is opened in 3 seconds.",
    "If the key is turned, the engine is started in 4 seconds.",
    "If the sensor is active, the valve is opened in 6 seconds.",
    "If the switch is on, the lamp is activated in 7 seconds.",
    "If the timer is expired, the buzzer is sounded in 60 seconds.",
    "If the alarm is sounded, the pump is stopped in 180 seconds.",
    "If the pulse wave is available, the monitor is activated.",
    "If the pulse wave is unavailable, the monitor is not activated.",
    "If the pulse wave is lost, the beeper is sounded.",
    "The pulse wave is available.",
    "If the feed is valid, the light is on.",
    "If the feed is invalid, the light is off.",
    "If the switch is off, the buzzer is sounded.",
    "Always the light is on.",
    "Always the light is off.",
)

SENTENCE = st.integers(0, len(POOL) - 1)
SLOT = st.integers(0, 15)
#: An initial document, then edits; "check" steps split them into
#: batches, and every batch is checked.
SCRIPTS = st.tuples(
    st.lists(SENTENCE, min_size=2, max_size=10),
    st.lists(
        st.one_of(
            st.tuples(st.just("add"), SENTENCE),
            st.tuples(st.just("update"), SLOT, SENTENCE),
            st.tuples(st.just("remove"), SLOT),
            st.tuples(st.just("check")),
        ),
        min_size=4,
        max_size=30,
    ),
)


def canonical(report) -> str:
    return json.dumps(report_to_dict(report, timings=False), sort_keys=True)


def translation_fingerprint(translation) -> tuple:
    return (
        tuple(
            (req.identifier, req.raw_formula, req.formula)
            for req in translation.requirements
        ),
        translation.abstraction,
        translation.partition.inputs,
        translation.partition.outputs,
        translation.analysis.antonym_pairs(),
    )


class TestWarmEqualsCold:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(SCRIPTS)
    def test_session_scripts_match_cold_checks(self, script):
        document, edits = script
        session = SpecSession()
        for number, sentence in enumerate(document, start=1):
            session.add(f"R{number}", POOL[sentence])
        added = len(document)
        for step in [("check",)] + edits + [("check",)]:
            identifiers = session.identifiers()
            if step[0] == "add":
                added += 1
                session.add(f"R{added}", POOL[step[1]])
            elif step[0] == "update" and identifiers:
                session.update(identifiers[step[1] % len(identifiers)], POOL[step[2]])
            elif step[0] == "remove" and identifiers:
                session.remove(identifiers[step[1] % len(identifiers)])
            elif step[0] == "check":
                warm = session.check().report
                cold = SpecCC().check(session.requirements())
                assert canonical(warm) == canonical(cold)
                assert [req.raw_formula for req in warm.translation.requirements] == [
                    req.raw_formula for req in cold.translation.requirements
                ]
                assert warm.translation.abstraction == cold.translation.abstraction

    def test_threads_share_one_pruned_cache(self, monkeypatch):
        """Eight threads translate overlapping documents through one cache
        whose bound is small enough that every pass may prune."""
        monkeypatch.setattr(translator_module, "MAX_CACHE_ENTRIES", 6)
        translator = Translator()
        rng = random.Random(20261019)
        documents = [
            [(f"R{index}", rng.choice(POOL)) for index in range(rng.randrange(1, 8))]
            for _ in range(12)
        ]
        expected = [
            translation_fingerprint(
                translator.translate(document, translator.new_cache())
            )
            for document in documents
        ]
        shared = translator.new_cache()
        mismatches = []
        finished = []

        def worker(seed: int) -> None:
            picks = random.Random(seed)
            for _ in range(60):
                index = picks.randrange(len(documents))
                got = translation_fingerprint(
                    translator.translate(documents[index], shared)
                )
                if got != expected[index]:
                    mismatches.append(index)
            finished.append(seed)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside the cache's steps
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(8))
        assert mismatches == []
        assert all(size <= 6 for size in shared.stats().values())

    def test_threads_share_the_certificate_caches(self, monkeypatch):
        """Eight threads check overlapping unrealizable documents through
        one tool.  Each repairs its partition three times and localizes,
        so the threads read and fill the component and constant-word
        caches under changing splits.  The constant-word bound is 2, so
        entries are evicted throughout, and the threads clear every
        process-wide cache at random, so components are re-analysed
        while other threads fill the caches again."""
        monkeypatch.setattr(invariants, "COMPONENT_CACHE_CAPACITY", 2)
        rng = random.Random(20261019)
        documents = []
        for _ in range(10):
            gates = rng.sample(GATES, rng.choice((4, 5)))
            documents.append(
                [("R1", "If the alpha sensor is valid, the gamma report is triggered.")]
                + [
                    (f"R{2 * index + polarity + 2}", gate_sentence(gate, polarity))
                    for index, gate in enumerate(gates)
                    for polarity in (0, 1)
                ]
            )
        expected = []
        for document in documents:
            realizability.clear_caches()
            report = SpecCC().check(document)
            assert report.repair_attempts == 3 and report.localization is not None
            expected.append(canonical(report))
        realizability.clear_caches()
        tool = SpecCC()
        mismatches = []
        finished = []

        def worker(seed: int) -> None:
            picks = random.Random(seed)
            for _ in range(40):
                if picks.random() < 0.5:
                    realizability.clear_caches()
                index = picks.randrange(len(documents))
                if canonical(tool.check(documents[index])) != expected[index]:
                    mismatches.append(index)
            finished.append(seed)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside the caches' steps
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            realizability.clear_caches()
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(8))
        assert mismatches == []


#: Gates for unrealizable documents: each demands the valve both opened
#: and not opened, so the repair loop moves three of a document's gates
#: to the outputs and localization names a pair of the rest.
GATES = ("a1", "a2", "a3", "a4", "a5", "a6")


def gate_sentence(gate: str, polarity: int) -> str:
    return f"If the {gate} gate is active, the theta valve is {'not ' * polarity}opened."


def random_table(rng: random.Random) -> dict:
    """A random subject table over the curated antonym vocabulary."""
    words = [
        "available", "unavailable", "lost", "valid", "invalid", "enabled",
        "disabled", "on", "off", "high", "low", "ok", "open", "closed",
        "busy", "idle", "full", "empty", "normal", "abnormal", "stable",
    ]
    table = {}
    for index in range(rng.randrange(1, 7)):
        table[f"s{index}"] = set(rng.sample(words, rng.randrange(1, 5)))
    return table


class TestComponentDecomposition:
    """Production's Algorithm 1 and its unit keys, against the printed loop."""

    dictionary = AntonymDictionary.default()

    def assert_equal(self, table):
        mono = analyse_table_monolithic(table, self.dictionary)
        split = _analyse_table(table, self.dictionary)
        assert split.pairs_by_subject == mono.pairs_by_subject, table
        assert split.wordset == mono.wordset, table

    def test_masked_lookup_coupling(self):
        """The adversarial case: pairing 'lost' under s1 pre-populates its
        antonym memo with {'available'} only, so under s2 the dictionary
        lookup of 'lost' never runs — the pair with 'unavailable' is only
        found through the partner's own lookup.  Both subjects share a
        word, hence coupled units: the loop must preserve the masking."""
        self.assert_equal(
            {"s1": {"available", "lost"}, "s2": {"lost", "unavailable"}}
        )

    def test_chained_coupling_across_three_subjects(self):
        self.assert_equal(
            {
                "s1": {"on", "off"},
                "s2": {"off", "high"},
                "s3": {"high", "low"},
            }
        )

    def test_disjoint_subjects_are_independent_units(self):
        table = {"a": {"open", "closed"}, "b": {"busy", "idle"}, "c": {"full"}}
        units = []
        _analyse_table(table, self.dictionary, units=units)
        assert [subject for subject, _ in units] == ["a", "b"]  # c skipped
        self.assert_equal(table)

    def test_identical_subjects_share_one_memo_node(self):
        """Twenty sensors with the same adjective pair have two unit keys:
        one with fresh pre-states, one with the threaded states every
        later subject observes."""
        table = {f"s{index:02d}": {"on", "off"} for index in range(20)}
        units = []
        _analyse_table(table, self.dictionary, units=units)
        assert len(units) == 20
        assert len({key for _, key in units}) == 2
        self.assert_equal(table)

    def test_pre_states_thread_through_shared_words(self):
        """s2's unit key differs from s1's because s1's pairing populated
        the shared words' antonym memos — the edge the keys must track."""
        table = {"s1": {"on", "off"}, "s2": {"on", "off"}}
        units = []
        _analyse_table(table, self.dictionary, units=units)
        (_, key1), (_, key2) = units
        assert key1 != key2
        assert key1[0] == key2[0] == ("off", "on")  # same dependents
        assert key1[1] == (None, None)  # fresh states
        assert all(state is not None for state in key2[1])  # threaded states

    def test_randomised_tables(self):
        rng = random.Random(20260729)
        for _ in range(150):
            self.assert_equal(random_table(rng))

    def test_distinct_dictionaries_do_not_share_nodes(self):
        custom = AntonymDictionary.from_pairs(DEFAULT_PAIRS + (("stable", "wobbly"),))
        table = {"p": {"stable", "wobbly"}}
        assert _analyse_table(table, self.dictionary).pairs_by_subject == {}
        assert _analyse_table(table, custom).pairs_by_subject == {
            "p": [("stable", "wobbly")]
        }


class TestSentenceVocabulary:
    def test_contributions_and_candidates(self):
        sentence = parse_sentence("The pulse wave is available.")
        assert sentence_vocabulary(sentence) == (("pulse_wave", ("available",)),)
        assert candidate_subjects(sentence) == frozenset({"pulse_wave"})

    def test_sentence_without_adjectives_contributes_nothing(self):
        sentence = parse_sentence("The valve is opened.")
        assert sentence_vocabulary(sentence) == ()
        assert candidate_subjects(sentence) == frozenset()


class TestAnalyseIncremental:
    dictionary = AntonymDictionary.default()

    def run(self, seen: set, texts):
        vocabularies = [sentence_vocabulary(parse_sentence(text)) for text in texts]
        analysis, delta, units = analyse_incremental(vocabularies, seen)
        seen |= units
        return analysis, delta

    def test_first_pass_reanalyses_everything(self):
        seen = set()
        texts = [
            "The pulse wave is available.",
            "The pulse wave is unavailable.",
            "The line is busy.",  # single dependent: no analysis unit
        ]
        analysis, delta = self.run(seen, texts)
        assert analysis.antonym_pairs() == [
            ("pulse_wave", "available", "unavailable")
        ]
        assert delta == SemanticsDelta(
            components=1, reanalysed_components=1, reused_components=0,
            reanalysed=(0, 1),
        )

    def test_unrelated_edit_reanalyses_nothing_else(self):
        seen = set()
        texts = [
            "The pulse wave is available.",
            "The pulse wave is unavailable.",
            "The line is busy.",
            "The line is idle.",
        ]
        self.run(seen, texts)
        texts[3] = "The line is empty."
        analysis, delta = self.run(seen, texts)
        assert delta.components == 2
        assert delta.reanalysed_components == 1
        assert delta.reanalysed == (2, 3)  # the edited subject's sentences
        assert analysis.antonym_pairs() == [
            ("pulse_wave", "available", "unavailable")
        ]

    def test_new_pair_attributes_affected_sentences(self):
        """An edit whose vocabulary joins another sentence's component must
        re-analyse both — and only those."""
        seen = set()
        texts = [
            "The pulse wave is available.",
            "The line is busy.",
            "The display is bright.",
        ]
        self.run(seen, texts)
        texts[2] = "The pulse wave is lost."
        analysis, delta = self.run(seen, texts)
        assert delta.reanalysed == (0, 2)  # sentence 1 untouched
        assert analysis.antonym_pairs() == [("pulse_wave", "available", "lost")]

    def test_incremental_equals_fresh_analyse(self):
        seen = set()
        texts = [
            "The pulse wave is available.",
            "The pulse wave is unavailable.",
            "The alarm is disabled.",
            "The alarm is enabled.",
        ]
        incremental, _ = self.run(seen, texts)
        fresh = analyse([parse_sentence(text) for text in texts], self.dictionary)
        assert incremental.wordset == fresh.wordset
        assert incremental.pairs_by_subject == fresh.pairs_by_subject
