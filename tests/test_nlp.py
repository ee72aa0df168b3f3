"""Tests for the NLP substrate: tokenizer, lexicon, grammar, tree, antonyms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp import (
    AntonymDictionary,
    StructuredEnglishError,
    TimeConstraint,
    normalise_name,
    parse_sentence,
    render_sentence,
    split_sentences,
    syntax_tree,
    tokenize,
)
from repro.nlp import lexicon


class TestTokenizer:
    def test_simple_sentence(self):
        tokens = tokenize("The cuff is inflated.")
        assert tokens == ["the", "cuff", "is", "inflated", "."]

    def test_hyphenated_word_kept_together(self):
        tokens = tokenize("auto-control mode")
        assert tokens[0] == "auto-control"

    def test_numbers(self):
        tokens = tokenize("in 180 seconds")
        assert tokens == ["in", "180", "seconds"]

    def test_decimal_number_is_one_token(self):
        assert tokenize("in 2.5 seconds.") == ["in", "2.5", "seconds", "."]

    def test_non_ascii_letters_do_not_fold_into_words(self):
        # U+212A KELVIN SIGN lower-cases to ASCII "k" and U+0130 to "i"
        # plus a combining dot; matching before lower-casing keeps both
        # out of the tokens, as they always were.
        assert tokenize("\u212aelvin pump") == ["elvin", "pump"]
        assert tokenize("\u0130nlet valve") == ["nlet", "valve"]

    def test_split_sentences_skips_comments_and_blanks(self):
        document = """
        # CARA requirements
        The pump is started.

        The pump is stopped.
        """
        assert len(list(split_sentences(document))) == 2

    def test_split_on_full_stop_within_line(self):
        sentences = list(split_sentences("A is started. B is stopped."))
        assert len(sentences) == 2


class TestLexicon:
    @pytest.mark.parametrize(
        "word,lemma",
        [
            ("pressed", "press"),
            ("terminated", "terminate"),
            ("plugged", "plug"),
            ("issued", "issue"),
            ("lost", "lose"),
            ("running", "run"),
            ("monitors", "monitor"),
            ("is", "be"),
            ("inflated", "inflate"),
        ],
    )
    def test_verb_lemma(self, word, lemma):
        assert lexicon.VERB_LEMMAS.get(word) == lemma

    def test_unknown_word_is_not_verb(self):
        assert lexicon.VERB_LEMMAS.get("cuff") is None
        assert lexicon.VERB_LEMMAS.get("xylophone") is None

    def test_adjectives(self):
        assert lexicon.is_adjective("available")
        assert lexicon.is_adjective("unavailable")
        assert lexicon.is_adjective("nonoperational")
        assert not lexicon.is_adjective("press")

    def test_parse_number(self):
        assert lexicon.parse_number("3") == 3
        assert lexicon.parse_number("three") == 3
        assert lexicon.parse_number("sixty") == 60
        assert lexicon.parse_number("banana") is None


class TestTimeConstraint:
    def test_ticks_in_seconds(self):
        assert TimeConstraint(3, "seconds").ticks() == 3
        assert TimeConstraint(2, "minutes").ticks() == 120


class TestClauseParsing:
    def test_passive(self):
        sentence = parse_sentence("The cuff is inflated.")
        clause = sentence.main.clauses[0]
        assert clause.subjects == ["cuff"]
        assert clause.verb == "inflate"
        assert clause.passive

    def test_progressive(self):
        clause = parse_sentence("Auto control mode is running.").main.clauses[0]
        assert clause.verb == "run"
        assert clause.progressive

    def test_complement(self):
        clause = parse_sentence("The pulse wave is available.").main.clauses[0]
        assert clause.verb is None
        assert clause.complement == "available"

    def test_negation(self):
        clause = parse_sentence("The cuff is not available.").main.clauses[0]
        assert clause.negated

    def test_modality_and_future(self):
        clause = parse_sentence("The alarm should sound.").main.clauses[0]
        assert clause.modality == "should"
        clause = parse_sentence("The cuff will be inflated.").main.clauses[0]
        assert clause.modality == "will"

    def test_cannot_sets_negation(self):
        clause = parse_sentence("The pump cannot be started.").main.clauses[0]
        assert clause.negated and clause.modality == "can"

    def test_linking_verb(self):
        clause = parse_sentence("Air Ok signal remains low.").main.clauses[0]
        assert clause.complement == "low"
        assert clause.subjects == ["air_ok_signal"]

    def test_active_with_object(self):
        clause = parse_sentence("The system enters the manual mode.").main.clauses[0]
        assert clause.verb == "enter"
        assert clause.object == "manual_mode"

    def test_particle(self):
        clause = parse_sentence("The LSTAT is powered on.").main.clauses[0]
        assert clause.verb == "power" and clause.particle == "on"

    def test_prepositional_complement(self):
        clause = parse_sentence("Robot 1 is in room 3.").main.clauses[0]
        assert clause.complement == "in_room_3"

    def test_constraint(self):
        clause = parse_sentence("The alarm is issued in 60 seconds.").main.clauses[0]
        assert clause.constraint == TimeConstraint(60, "seconds")

    def test_subject_conjunction(self):
        clause = parse_sentence("Pulse wave or arterial line is available.").main.clauses[0]
        assert clause.subjects == ["pulse_wave", "arterial_line"]
        assert clause.subject_conjunction == "or"

    def test_attributive_adjective_dropped(self):
        clause = parse_sentence("A valid blood pressure is unavailable.").main.clauses[0]
        assert clause.subjects == ["blood_pressure"]

    def test_mixed_subject_conjunction_rejected(self):
        with pytest.raises(StructuredEnglishError):
            parse_sentence("The cuff and pulse wave or arterial line is lost.")

    def test_missing_predicate_rejected(self):
        with pytest.raises(StructuredEnglishError):
            parse_sentence("The red cuff colour thing.")

    def test_empty_sentence_rejected(self):
        with pytest.raises(StructuredEnglishError):
            parse_sentence("   ")


class TestSentenceStructure:
    def test_leading_subclause(self):
        sentence = parse_sentence(
            "When auto control mode is entered, the cuff is inflated."
        )
        assert len(sentence.pre) == 1
        assert sentence.pre[0].subordinator == "when"
        assert len(sentence.main.clauses) == 1

    def test_subclause_continuation(self):
        sentence = parse_sentence(
            "If the pump is started, and the line is clear, the rate is updated."
        )
        assert len(sentence.pre) == 1
        assert len(sentence.pre[0].group.clauses) == 2
        assert sentence.pre[0].group.connectives == ["and"]

    def test_trailing_subclause(self):
        sentence = parse_sentence(
            "The CARA will be operational whenever the LSTAT is powered on."
        )
        assert len(sentence.post) == 1
        assert sentence.post[0].subordinator == "whenever"

    def test_until_subclause(self):
        sentence = parse_sentence(
            "The button is enabled until it is pressed."
        )
        assert sentence.post[0].subordinator == "until"

    def test_next_marker_on_main(self):
        sentence = parse_sentence(
            "If the cuff is lost, next manual mode is started."
        )
        assert sentence.main.clauses[0].next_marker

    def test_nested_if(self):
        sentence = parse_sentence(
            "If override selection is provided, if override yes is pressed, "
            "next arterial line is selected."
        )
        assert len(sentence.pre) == 2

    def test_conjoined_main_clauses(self):
        sentence = parse_sentence(
            "If the cuff is lost, an alarm is issued and override selection is provided."
        )
        assert len(sentence.main.clauses) == 2
        assert sentence.main.connectives == ["and"]

    def test_modifier(self):
        sentence = parse_sentence(
            "When the mode is entered, eventually the cuff is inflated."
        )
        assert sentence.main.clauses[0].modifier == "eventually"


class TestSyntaxTree:
    def test_figure2_shape(self):
        # Figure 2 of the paper: Req-17 decomposes into a when-subclause and
        # a main clause with the "eventually" modifier.
        sentence = parse_sentence(
            "When auto-control mode is entered, eventually the cuff will be inflated."
        )
        tree = syntax_tree(sentence)
        assert tree.label == "sentence"
        labels = [child.label for child in tree.children]
        assert labels == ["subclause", "clause"]
        subclause = tree.children[0]
        assert subclause.children[0].label == "subordinator"
        assert subclause.children[0].text == "when"
        main = tree.children[1]
        assert [c.label for c in main.children] == ["modifier", "subject", "predicate"]

    def test_render_is_stable(self):
        sentence = parse_sentence("If the cuff is lost, the alarm is issued.")
        assert render_sentence(sentence) == render_sentence(sentence)
        assert "subordinator: if" in render_sentence(sentence)


class TestAntonymDictionary:
    def test_curated_pairs(self):
        dictionary = AntonymDictionary.default()
        assert "unavailable" in dictionary.lookup("available")
        assert "available" in dictionary.lookup("unavailable")
        assert "available" in dictionary.lookup("lost")

    def test_morphology(self):
        dictionary = AntonymDictionary.default()
        assert "unreachable" in dictionary.lookup("reachable")
        assert "reachable" in dictionary.lookup("unreachable")

    def test_polarity(self):
        dictionary = AntonymDictionary.default()
        assert dictionary.is_positive("available", "unavailable")
        assert not dictionary.is_positive("unavailable", "available")
        assert dictionary.is_positive("enabled", "disabled")

    def test_polarity_deterministic_for_unknown_pairs(self):
        dictionary = AntonymDictionary.default()
        assert dictionary.is_positive("alpha", "beta")
        assert not dictionary.is_positive("beta", "alpha")

    def test_custom_pairs(self):
        dictionary = AntonymDictionary.from_pairs([("hot", "cold")])
        assert "cold" in dictionary.lookup("hot")
        assert dictionary.is_positive("hot", "cold")

    def test_dictionaries_cannot_change_once_built(self):
        # Translations cached against the default dictionary stay exact
        # only while nothing can edit it.
        import dataclasses

        dictionary = AntonymDictionary.default()
        assert dictionary is AntonymDictionary.default()
        with pytest.raises(TypeError):
            dictionary.pairs["vacant"] = frozenset({"occupied"})
        with pytest.raises(AttributeError):
            dictionary.pairs["available"].add("gone")
        with pytest.raises(dataclasses.FrozenInstanceError):
            dictionary.positive_forms = frozenset()


class TestNormaliseName:
    def test_joins_with_underscore(self):
        assert normalise_name(["auto-control", "mode"]) == "auto_control_mode"

    @given(st.lists(st.sampled_from(["pump", "line-a", "it's"]), min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_never_contains_hyphen_or_quote(self, parts):
        name = normalise_name(parts)
        assert "-" not in name and "'" not in name


# ---------------------------------------------------------------------------
# The one-pass front end


def _inflections(word: str):
    """Every form the inflection rules build from *word*, plus near misses."""
    for stem in (word, word[:-1], word + word[-1]):
        for suffix in ("", "s", "es", "ies", "ed", "d", "ing", "less"):
            yield stem + suffix
            for prefix in ("un", "in", "dis", "non"):
                yield prefix + stem + suffix


def _table1_tokens():
    from repro.casestudies import (
        TABLE_INSTANCES,
        application_requirements,
        component_requirements,
        mode_switching_requirements,
        robot_requirements,
    )

    documents = [mode_switching_requirements()]
    documents += list(component_requirements().values())
    documents += list(application_requirements().values())
    documents += [robot_requirements(*TABLE_INSTANCES[row]) for row in TABLE_INSTANCES]
    return sorted({
        token
        for requirements in documents
        for _, text in requirements
        for token in tokenize(text)
    })


def assert_tables_match_rules(word: str) -> None:
    from oracles import lexicon as rules

    assert lexicon.VERB_LEMMAS.get(word) == rules.verb_lemma(word), word
    assert lexicon.PARTICIPLE_LEMMAS.get(word) == rules.participle_lemma(word), word
    assert lexicon.PROGRESSIVE_LEMMAS.get(word) == rules.progressive_lemma(word), word
    assert lexicon.is_adjective(word) == rules.is_adjective(word), word
    assert lexicon.NEGATED_ADJECTIVES.get(word) == rules.strip_negation_prefix(word), word


class TestLexiconTables:
    """The import-time tables accept exactly what the morphology rules
    (``tests/oracles/lexicon.py``) accept, with the same base forms."""

    def test_every_generated_inflection(self):
        words = set(lexicon.LINKING_VERBS | lexicon.BE_FORMS | set(lexicon.IRREGULAR_PARTICIPLES))
        for word in lexicon.VERBS | lexicon.ADJECTIVES:
            words.update(_inflections(word))
        assert len(words) > 10_000
        for word in sorted(words):
            assert_tables_match_rules(word)

    def test_every_table1_token(self):
        tokens = _table1_tokens()
        assert len(tokens) > 200
        for token in tokens:
            assert_tables_match_rules(token)

    @given(
        st.one_of(
            st.text(alphabet="abcdeghilnoprstuy", min_size=1, max_size=10),
            st.tuples(
                st.sampled_from(sorted(lexicon.VERBS | lexicon.ADJECTIVES)),
                st.sampled_from(["", "s", "es", "ed", "ing", "d", "ies", "less", "ly"]),
                st.sampled_from(["", "un", "in", "dis", "non", "re"]),
            ).map(lambda parts: parts[2] + parts[0] + parts[1]),
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_drawn_words(self, word):
        assert_tables_match_rules(word)

    def test_auxiliaries_are_the_union(self):
        assert lexicon.AUXILIARIES == (
            lexicon.BE_FORMS | lexicon.MODALITIES | lexicon.DO_FORMS | lexicon.LINKING_VERBS
        )

    def test_parsing_adds_no_entries(self):
        """No per-word memo: parsing unseen words leaves every table as
        built, so clearing the translation caches leaves nothing warm."""
        tables = {
            name: len(value)
            for name, value in vars(lexicon).items()
            if isinstance(value, (dict, set, frozenset))
        }
        parse_sentence("If the zorbing flimflam is unflappable, the quux is frobbed.")
        assert tables == {
            name: len(value)
            for name, value in vars(lexicon).items()
            if isinstance(value, (dict, set, frozenset))
        }


class TestConjoinedSubjects:
    """A conjunction splits clauses only where the part before it is a
    clause with a subject: nouns that are also lexicon verbs ("pump",
    "alarm", "display") no longer cut a subject in two."""

    @pytest.mark.parametrize(
        "text,subjects,conjunction,verb",
        [
            ("The pump and the valve are started.", ["pump", "valve"], "and", "start"),
            ("The alarm and the light are turned on.", ["alarm", "light"], "and", "turn"),
            ("The display or the light is turned on.", ["display", "light"], "or", "turn"),
        ],
    )
    def test_verb_noun_first(self, text, subjects, conjunction, verb):
        (clause,) = parse_sentence(text).main.clauses
        assert clause.subjects == subjects
        assert clause.subject_conjunction == conjunction
        assert clause.verb == verb and clause.passive

    def test_in_a_condition(self):
        sentence = parse_sentence(
            "If the pump and the valve are started, the light is turned on."
        )
        (condition,) = sentence.pre[0].group.clauses
        assert condition.subjects == ["pump", "valve"]
        assert sentence.main.clauses[0].subjects == ["light"]

    def test_clauses_still_split(self):
        sentence = parse_sentence(
            "If the cuff is lost, the pump is stopped and the alarm is issued."
        )
        assert [c.subjects for c in sentence.main.clauses] == [["pump"], ["alarm"]]
        assert sentence.main.connectives == ["and"]


class TestOutOfGrammar:
    """Shapes the grammar does not cover raise instead of translating to a
    wrong formula."""

    @pytest.mark.parametrize(
        "text",
        [
            "If the button is pressed.",
            "If the button is pressed; the pump is started.",
            "When the pump is started, if the valve is opened.",
        ],
    )
    def test_no_main_clause(self, text):
        with pytest.raises(StructuredEnglishError, match="no main clause"):
            parse_sentence(text)

    def test_non_integer_time_constraint(self):
        with pytest.raises(StructuredEnglishError, match=r"'2\.5'"):
            parse_sentence("If the cuff is inflated, the pump is stopped in 2.5 seconds.")

    @pytest.mark.parametrize(
        "text",
        [
            "The pump that is started is stopped.",
            "The alarm which is active is sounded.",
            "If the valve that is opened is closed, the pump is stopped.",
        ],
    )
    def test_restrictive_relative_clause(self, text):
        with pytest.raises(StructuredEnglishError, match="relative clause"):
            parse_sentence(text)

    def test_that_as_determiner_still_parses(self):
        clause = parse_sentence("That pump and that valve are started.").main.clauses[0]
        assert clause.subjects == ["pump", "valve"]
