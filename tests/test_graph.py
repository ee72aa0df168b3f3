"""Tests of the incremental analysis graph (core/graph.py) and of
Algorithm 1's incremental attribution riding on it.

Two contracts matter:

* the graph machinery itself — signature-keyed memos with exact hit/miss
  counters, LRU (shared flavour) vs retain-pruning (per-document
  flavour), thread safety;
* Algorithm 1 — production's loop, gated by primed words, must reproduce
  the algorithm as printed *exactly*, including the order-coupled
  ``wordset`` mutations (the ``online(w)`` memo is filled at most once
  per word, so pairing under one subject can mask lookups under a later
  subject), and its per-subject unit keys must capture those couplings.
"""

from __future__ import annotations

import itertools
import random
import threading

import pytest

from repro.core.graph import AnalysisGraph, shared_graph
from repro.nlp import parse_sentence
from repro.nlp.antonyms import DEFAULT_PAIRS, AntonymDictionary
from repro.nlp.dependencies import candidate_subjects, sentence_vocabulary
from repro.translate.semantics import (
    SemanticsDelta,
    _analyse_table,
    analyse,
    analyse_incremental,
)
from repro.translate.translator import TranslationCache

from oracles.semantics import analyse_table_monolithic


class TestAnalysisGraph:
    def test_compute_counts_hits_and_misses(self):
        graph = AnalysisGraph(("stage",))
        calls = []
        value = graph.compute("stage", "k", lambda: calls.append(1) or 41)
        again = graph.compute("stage", "k", lambda: calls.append(1) or 42)
        assert value == again == 41  # second call served from the node
        assert len(calls) == 1
        stats = graph.stats()["stage"]
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)

    def test_unknown_stage_is_rejected(self):
        graph = AnalysisGraph(("stage",))
        with pytest.raises(KeyError):
            graph.compute("nope", "k", lambda: 1)

    def test_lru_stage_evicts_oldest_and_its_edges(self):
        graph = AnalysisGraph(("a", "b"), max_entries=2, lru=True)
        graph.compute("a", 0, lambda: "dep")
        for key in (1, 2, 3):
            graph.compute("b", key, lambda key=key: key)
        stats = graph.stats()["b"]
        assert stats.size == 2
        assert not graph.contains("b", 1)  # oldest evicted
        assert graph.contains("b", 3)

    def test_lru_hit_refreshes_recency(self):
        graph = AnalysisGraph(("s",), max_entries=2, lru=True)
        graph.compute("s", 1, lambda: 1)
        graph.compute("s", 2, lambda: 2)
        graph.compute("s", 1, lambda: 1)  # refresh 1
        graph.compute("s", 3, lambda: 3)  # evicts 2, not 1
        assert graph.contains("s", 1) and not graph.contains("s", 2)

    def test_retain_prunes_only_over_bound_stages(self):
        graph = AnalysisGraph(("s",), max_entries=3)
        for key in range(3):
            graph.compute("s", key, lambda key=key: key)
        graph.retain({"s": {0}})  # under bound: untouched
        assert graph.stats()["s"].size == 3
        graph.compute("s", 3, lambda: 3)
        graph.retain({"s": {2, 3}})  # over bound: pruned to the hot set
        assert sorted(graph.sizes().items()) == [("s", 2)]
        assert graph.contains("s", 2) and graph.contains("s", 3)

    def test_clear_resets_nodes_edges_and_counters(self):
        graph = AnalysisGraph(("a", "b"))
        graph.compute("a", 1, lambda: 1)
        graph.compute("b", 1, lambda: 1)
        graph.clear()
        assert graph.sizes() == {"a": 0, "b": 0}
        assert graph.stats()["a"] == (0, 2048, 0, 0)

    def test_snapshot_is_plain_data(self):
        import pickle

        graph = AnalysisGraph(("s",))
        graph.compute("s", 1, lambda: object())  # value itself not shipped
        snapshot = pickle.loads(pickle.dumps(graph.snapshot()))
        assert snapshot == {
            "s": {"size": 1, "capacity": 2048, "hits": 0, "misses": 1}
        }

    def test_concurrent_compute_is_consistent(self):
        graph = AnalysisGraph(("s",), lru=True)
        results = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(200):
                key = rng.randrange(8)
                results.append((key, graph.compute("s", key, lambda key=key: key * 7)))

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(value == key * 7 for key, value in results)
        stats = graph.stats()["s"]
        assert stats.hits + stats.misses == 8 * 200
        assert stats.size == 8

    def test_shared_graph_hosts_the_pipeline_stages(self):
        stats = shared_graph().stats()
        assert set(stats) == {"components"}
        assert stats["components"].capacity == 2048


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

    def run(self, cache: TranslationCache, texts):
        vocabularies = [sentence_vocabulary(cache.parse(text)) for text in texts]
        return analyse_incremental(vocabularies, cache.graph)

    def test_first_pass_reanalyses_everything(self):
        cache = TranslationCache()
        texts = [
            "The pulse wave is available.",
            "The pulse wave is unavailable.",
            "The line is busy.",  # single dependent: no analysis unit
        ]
        analysis, delta = self.run(cache, texts)
        assert analysis.antonym_pairs() == [
            ("pulse_wave", "available", "unavailable")
        ]
        assert delta == SemanticsDelta(
            components=1, reanalysed_components=1, reused_components=0,
            reanalysed=(0, 1),
        )

    def test_unrelated_edit_reanalyses_nothing_else(self):
        cache = TranslationCache()
        texts = [
            "The pulse wave is available.",
            "The pulse wave is unavailable.",
            "The line is busy.",
            "The line is idle.",
        ]
        self.run(cache, texts)
        texts[3] = "The line is empty."
        analysis, delta = self.run(cache, texts)
        assert delta.components == 2
        assert delta.reanalysed_components == 1
        assert delta.reanalysed == (2, 3)  # the edited subject's sentences
        assert analysis.antonym_pairs() == [
            ("pulse_wave", "available", "unavailable")
        ]

    def test_new_pair_attributes_affected_sentences(self):
        """An edit whose vocabulary joins another sentence's component must
        re-analyse both — and only those."""
        cache = TranslationCache()
        texts = [
            "The pulse wave is available.",
            "The line is busy.",
            "The display is bright.",
        ]
        self.run(cache, texts)
        texts[2] = "The pulse wave is lost."
        analysis, delta = self.run(cache, texts)
        assert delta.reanalysed == (0, 2)  # sentence 1 untouched
        assert analysis.antonym_pairs() == [("pulse_wave", "available", "lost")]

    def test_incremental_equals_fresh_analyse(self):
        cache = TranslationCache()
        texts = [
            "The pulse wave is available.",
            "The pulse wave is unavailable.",
            "The alarm is disabled.",
            "The alarm is enabled.",
        ]
        incremental, _ = self.run(cache, texts)
        fresh = analyse([parse_sentence(text) for text in texts], self.dictionary)
        assert incremental.wordset == fresh.wordset
        assert incremental.pairs_by_subject == fresh.pairs_by_subject
