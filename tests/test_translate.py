"""Tests for stage 1: propositions, Algorithm 1, templates, time
abstraction, I/O partition, and the full translator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import And, Atom, Next, Or, atoms, next_chain, parse, to_str
from repro.nlp import AntonymDictionary, StructuredEnglishError, parse_sentence
from repro.translate import (
    AbstractionMethod,
    Color,
    TranslationOptions,
    Translator,
    abstract_time,
    analyse,
    chain_lengths,
    classify_requirement,
    clause_propositions,
    mutual_exclusion_assumptions,
    no_reasoning,
    partition_formulas,
    rewrite_chains,
    sentence_formula,
)
from repro.translate.partition import RequirementPartition


def formula_of(text: str, **options) -> str:
    sentence = parse_sentence(text)
    opts = TranslationOptions(**options)
    return to_str(sentence_formula(sentence, None, opts))


class TestPropositions:
    def test_passive(self):
        clause = parse_sentence("The cuff is inflated.").main.clauses[0]
        (prop,) = clause_propositions(clause)
        assert prop.name == "inflate_cuff" and not prop.negated

    def test_adjective_is_antonym_candidate(self):
        clause = parse_sentence("The cuff is available.").main.clauses[0]
        (prop,) = clause_propositions(clause)
        assert prop.is_antonym_candidate
        assert prop.name == "available_cuff"

    def test_negated(self):
        clause = parse_sentence("The cuff is not inflated.").main.clauses[0]
        (prop,) = clause_propositions(clause)
        assert prop.negated

    def test_one_per_subject(self):
        clause = parse_sentence("Pulse wave and arterial line are lost.").main.clauses[0]
        props = clause_propositions(clause)
        assert [p.name for p in props] == ["lost_pulse_wave", "lost_arterial_line"]


class TestAlgorithm1:
    def sentences(self, *texts):
        return [parse_sentence(t) for t in texts]

    def test_pair_found_per_subject(self):
        analysis = analyse(
            self.sentences(
                "The pulse wave is available.",
                "The pulse wave is unavailable.",
            )
        )
        assert analysis.pairs_by_subject["pulse_wave"] == [("available", "unavailable")]
        assert analysis.color_of("available", "pulse_wave") is Color.BLUE
        assert analysis.color_of("unavailable", "pulse_wave") is Color.BLUE

    def test_single_dependent_skipped(self):
        # Algorithm 1 line 3: |s.dep| > 1 required.
        analysis = analyse(self.sentences("The pulse wave is available."))
        assert "pulse_wave" not in analysis.pairs_by_subject

    def test_non_antonym_dependents_stay_green(self):
        analysis = analyse(
            self.sentences(
                "The line is available.",
                "The line is busy.",
            )
        )
        assert analysis.color_of("available", "line") is Color.GREEN
        assert analysis.color_of("busy", "line") is Color.GREEN

    def test_pairs_are_per_subject(self):
        analysis = analyse(
            self.sentences(
                "The pulse wave is available.",
                "The pulse wave is unavailable.",
                "The arterial line is available.",
                "The arterial line is lost.",
            )
        )
        assert set(analysis.pairs_by_subject) == {"pulse_wave", "arterial_line"}

    def test_reduction_abbreviates_single_positive(self):
        analysis = analyse(
            self.sentences(
                "The pulse wave is available.",
                "The pulse wave is unavailable.",
            )
        )
        clause = parse_sentence("The pulse wave is unavailable.").main.clauses[0]
        (prop,) = clause_propositions(clause)
        reduced = analysis.reduce(prop)
        assert reduced.name == "pulse_wave" and reduced.negated

    def test_morphological_reduction_without_pair(self):
        analysis = analyse(self.sentences("The feed is unavailable."))
        clause = parse_sentence("The feed is unavailable.").main.clauses[0]
        (prop,) = clause_propositions(clause)
        reduced = analysis.reduce(prop)
        assert reduced.name == "available_feed" and reduced.negated

    def test_curated_unique_negative(self):
        analysis = analyse(self.sentences("The alarm is disabled."))
        clause = parse_sentence("The alarm is disabled.").main.clauses[0]
        (prop,) = clause_propositions(clause)
        reduced = analysis.reduce(prop)
        assert reduced.name == "enabled_alarm" and reduced.negated

    def test_no_reasoning_reduces_nothing(self):
        clause = parse_sentence("The feed is unavailable.").main.clauses[0]
        (prop,) = clause_propositions(clause)
        assert no_reasoning().reduce(prop) == prop

    def test_mutual_exclusion_assumption_count(self):
        analysis = analyse(
            self.sentences(
                "The pulse wave is available.",
                "The pulse wave is unavailable.",
            )
        )
        assert mutual_exclusion_assumptions(analysis) == [
            ("available_pulse_wave", "unavailable_pulse_wave")
        ]

    def test_custom_dictionary(self):
        dictionary = AntonymDictionary.from_pairs([("armed", "safe")])
        analysis = analyse(
            self.sentences("The system is armed.", "The system is safe."),
            dictionary,
        )
        assert analysis.pairs_by_subject["system"] == [("armed", "safe")]


class TestTemplates:
    def test_conditional(self):
        assert formula_of(
            "If the cuff is lost, the alarm is issued."
        ) == "G (lost_cuff -> issue_alarm)"

    def test_eventually_modifier(self):
        assert formula_of(
            "When the mode is entered, eventually the cuff is inflated."
        ) == "G (enter_mode -> F inflate_cuff)"

    def test_future_modality(self):
        assert formula_of(
            "If the mode is entered, the cuff will be inflated."
        ) == "G (enter_mode -> F inflate_cuff)"

    def test_bare_invariant(self):
        assert formula_of("The pump is monitored.") == "G monitor_pump"

    def test_bare_existence(self):
        assert formula_of("Eventually the pump is started.") == "F start_pump"

    def test_nested_conditions(self):
        assert formula_of(
            "If the selection is provided, if the button is pressed, the mode is started."
        ) == "G (provide_selection -> G (press_button -> start_mode))"

    def test_next_marker(self):
        text = "If the cuff is lost, next manual mode is started."
        assert formula_of(text, next_as_x=True) == "G (lost_cuff -> X start_manual_mode)"
        assert formula_of(text, next_as_x=False) == "G (lost_cuff -> start_manual_mode)"

    def test_constraint_expands_to_next_chain(self):
        assert formula_of(
            "If the cuff is lost, the alarm is issued in 3 seconds."
        ) == "G (lost_cuff -> X X X issue_alarm)"

    def test_until_template(self):
        assert formula_of(
            "When the button is enabled, the button is enabled until it is pressed."
        ) == (
            "G (enabled_button -> !press_button -> "
            "enabled_button W press_button)"
        )

    def test_before_template(self):
        assert formula_of(
            "The door is closed before the pump is started."
        ) == "!start_pump U closed_door"

    def test_or_subjects(self):
        assert formula_of(
            "If pulse wave or arterial line is lost, the alarm is issued."
        ) == "G (lost_pulse_wave || lost_arterial_line -> issue_alarm)"

    def test_trailing_condition(self):
        assert formula_of(
            "The system is operational whenever the power is on."
        ) == "G (on_power -> operational_system)"


class TestChainRewriting:
    def test_chain_lengths_ignores_single_next(self):
        formulas = [parse("G (a -> X b)"), parse("G (c -> X X X d)")]
        assert chain_lengths(formulas) == (3,)

    def test_chain_lengths_finds_nested(self):
        formulas = [parse("G (X X a -> X X X X b)")]
        assert chain_lengths(formulas) == (2, 4)

    def test_rewrite(self):
        formula = parse("G (a -> X X X b)")
        assert rewrite_chains(formula, {3: 1}) == parse("G (a -> X b)")
        assert rewrite_chains(formula, {3: 0}) == parse("G (a -> b)")

    def test_rewrite_keeps_unmapped(self):
        formula = parse("X X a")
        assert rewrite_chains(formula, {}) == formula

    @given(st.integers(2, 12), st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_rewrite_roundtrip_depth(self, depth, scaled):
        formula = next_chain(Atom("p"), depth)
        rewritten = rewrite_chains(formula, {depth: scaled})
        assert rewritten == next_chain(Atom("p"), scaled)


class TestAbstractTime:
    def test_paper_mapping(self):
        formulas = [
            parse("G (a -> " + "X " * 3 + "p)"),
            parse("G (b -> " + "X " * 180 + "q)"),
            parse("G (c -> " + "X " * 60 + "r)"),
        ]
        result = abstract_time(formulas, AbstractionMethod.OPTIMAL, error_bound=5)
        assert result.solution.divisor == 60
        assert result.mapping == {3: 0, 60: 1, 180: 3}

    def test_gcd_method(self):
        formulas = [parse("X X X X a"), parse("X X b")]
        result = abstract_time(formulas, AbstractionMethod.GCD)
        assert result.solution.divisor == 2
        assert result.formulas == (parse("X X a"), parse("X b"))

    def test_none_method(self):
        formulas = [parse("X X X a")]
        result = abstract_time(formulas, AbstractionMethod.NONE)
        assert result.formulas == tuple(formulas)


class TestPartition:
    def test_implication_sides(self):
        part = classify_requirement(parse("G (a && b -> c)"))
        assert part.inputs == ("a", "b")
        assert part.outputs == ("c",)

    def test_both_sides_is_output(self):
        part = classify_requirement(parse("G (a -> a && b)"))
        assert part.inputs == ()
        assert "a" in part.outputs

    def test_until_right_is_input(self):
        part = classify_requirement(parse("b U p"))
        assert "p" in part.inputs
        assert "b" in part.outputs

    def test_unify_conflicts_become_outputs(self):
        merged = partition_formulas([
            RequirementPartition(inputs=("a",), outputs=("b",)),
            RequirementPartition(inputs=("b",), outputs=("c",)),
        ])
        assert merged.inputs == frozenset({"a"})
        assert merged.outputs == frozenset({"b", "c"})

    def test_no_inputs_promotes_one_output(self):
        partition = partition_formulas([classify_requirement(parse("G (a || b)"))])
        assert len(partition.inputs) == 1
        assert partition.inputs == frozenset({"a"})  # deterministic choice

    def test_move_operations(self):
        partition = partition_formulas([classify_requirement(parse("G (a -> b)"))])
        moved = partition.move_to_output("a")
        assert "a" in moved.outputs
        back = moved.move_to_input("a")
        assert "a" in back.inputs
        with pytest.raises(ValueError):
            partition.move_to_output("b")

    def test_disjoint_invariant(self):
        from repro.translate import Partition

        with pytest.raises(ValueError):
            Partition(frozenset({"a"}), frozenset({"a"}))

    def test_paper_example_req_32(self):
        formula = parse(
            "G ((available_pulse_wave || available_arterial_line) && select_cuff"
            " -> trigger_corroboration)"
        )
        part = classify_requirement(formula)
        assert part.inputs == (
            "available_arterial_line",
            "available_pulse_wave",
            "select_cuff",
        )
        assert part.outputs == ("trigger_corroboration",)


class TestTranslator:
    def test_document_numbering(self):
        translator = Translator()
        spec = translator.translate_document(
            "If the cuff is lost, the alarm is issued.\n"
            "If the alarm is issued, the pump is stopped."
        )
        assert [r.identifier for r in spec.requirements] == ["R1", "R2"]

    def test_reported_counts(self):
        translator = Translator()
        spec = translator.translate_document(
            "If the cuff is lost, the alarm is issued."
        )
        assert spec.num_inputs == 1 and spec.num_outputs == 1
        assert "1 inputs" in spec.summary()

    def test_semantic_reasoning_toggle(self):
        document = (
            "If the line is available, the alarm is stopped.\n"
            "If the line is unavailable, the alarm is issued."
        )
        with_reasoning = Translator().translate_document(document)
        without = Translator(
            options=TranslationOptions(semantic_reasoning=False)
        ).translate_document(document)
        assert len(with_reasoning.variables()) < len(without.variables())

    def test_abstraction_applied_across_requirements(self):
        translator = Translator(error_bound=5)
        spec = translator.translate_document(
            "If the valve is open, the alarm is issued in 3 seconds.\n"
            "If the valve is open, the pump is stopped in 180 seconds.\n"
            "If the valve is open, the log is updated in 60 seconds."
        )
        assert spec.abstraction.solution.divisor == 60

    def test_bitblast_matches_reference(self):
        document = (
            "If the valve is open, the alarm is issued in 4 seconds.\n"
            "If the valve is open, the pump is stopped in 7 seconds."
        )
        optimal = Translator(abstraction=AbstractionMethod.OPTIMAL, error_bound=2)
        bitblast = Translator(abstraction=AbstractionMethod.BITBLAST, error_bound=2)
        a = optimal.translate_document(document)
        b = bitblast.translate_document(document)
        assert a.abstraction.solution.cost_next == b.abstraction.solution.cost_next


class TestMetamorphic:
    """Paraphrases the grammar accepts translate alike; shapes it cannot
    tell apart are flagged, never conflated (SNIPPETS.md Snippets 1 and 3)."""

    translator = Translator()

    def formula(self, text: str):
        translation = self.translator.translate(
            [("R1", text)], self.translator.new_cache()
        )
        return translation.requirements[0].formula

    def outcome(self, text: str):
        try:
            return self.formula(text)
        except StructuredEnglishError:
            return None

    @pytest.mark.parametrize(
        "restrictive,non_restrictive",
        [
            ("The pump that is started is stopped.",
             "The pump, which is started, is stopped."),
            ("The alarm which is active is sounded.",
             "The alarm, which is active, is sounded."),
            ("If the valve that is opened is closed, the pump is stopped.",
             "If the valve, which is opened, is closed, the pump is stopped."),
        ],
    )
    def test_relative_clauses_are_never_conflated(self, restrictive, non_restrictive):
        first, second = self.outcome(restrictive), self.outcome(non_restrictive)
        assert first is None or first is not second

    clause_parts = st.tuples(
        st.sampled_from(
            ["the cuff", "the pump", "the alarm", "auto control mode", "the pulse wave"]
        ),
        st.sampled_from(
            ["is lost", "is started", "is available", "is not available",
             "is running", "is issued", "should sound"]
        ),
    ).map(" ".join)

    @given(condition=clause_parts, consequence=clause_parts)
    @settings(max_examples=60, deadline=None)
    def test_condition_first_or_last(self, condition, consequence):
        leading = self.formula(f"If {condition}, {consequence}.")
        trailing = self.formula(f"{consequence.capitalize()} if {condition}.")
        assert leading is trailing

    @staticmethod
    def conjuncts(formula):
        """The kind and operands of the formula's one and/or node."""
        stack = [formula]
        while stack:
            node = stack.pop()
            if isinstance(node, (And, Or)):
                return type(node), {node.left, node.right}
            stack.extend(
                getattr(node, name)
                for name in ("operand", "left", "right")
                if hasattr(node, name)
            )
        raise AssertionError(f"no and/or in {formula}")

    @given(
        first=st.sampled_from(
            ["pump", "valve", "alarm", "light", "display", "order", "report", "log", "switch", "door"]
        ),
        second=st.sampled_from(["valve", "light", "cuff", "alarm", "power", "display"]),
        conjunction=st.sampled_from(["and", "or"]),
        predicate=st.sampled_from(
            ["are started", "are turned on", "are available", "are not lost"]
        ),
        condition=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_swapped_conjoined_subjects(
        self, first, second, conjunction, predicate, condition
    ):
        if first == second:
            return
        texts = [
            f"The {a} {conjunction} the {b} {predicate}."
            for a, b in ((first, second), (second, first))
        ]
        if condition:
            texts = [
                f"If {text[0].lower()}{text[1:-1]}, the lamp is opened."
                for text in texts
            ]
        forward, backward = (self.formula(text) for text in texts)
        assert self.conjuncts(forward) == self.conjuncts(backward)
        assert self.conjuncts(forward)[0] is (And if conjunction == "and" else Or)

    @pytest.mark.parametrize(
        "ears,plain",
        [
            # Event-driven (WHEN ... SHALL).
            ("When the button is pressed, the pump shall be started.",
             "When the button is pressed, the pump is started."),
            ("When the customer card is available, the order record shall be triggered.",
             "If the customer card is available, the order record is triggered."),
            ("When auto control mode is running, eventually the cuff shall be inflated.",
             "When auto control mode is running, eventually the cuff will be inflated."),
            # State-driven (WHILE ... SHALL).
            ("While auto control mode is running, terminate auto control button "
             "shall be available.",
             "When auto control mode is running, terminate auto control button "
             "should be available."),
            # Unwanted behaviour (IF ... THEN ... SHALL).
            ("If alarm reset button is pressed, then the alarm shall be disabled.",
             "If alarm reset button is pressed, the alarm is disabled."),
            ("If a confirmation button is available, and confirmation yes is "
             "pressed, then manual mode shall be started.",
             "If a confirmation button is available, and confirmation yes is "
             "pressed, manual mode is started."),
            # Ubiquitous (THE ... SHALL).
            ("The zeta lamp shall be on.", "Always the zeta lamp is on."),
        ],
    )
    def test_ears_variants_translate_like_plain_forms(self, ears, plain):
        assert self.formula(ears) is self.formula(plain)

    def test_ears_event_driven_formula(self):
        formula = self.formula("When the button is pressed, the pump shall be started.")
        assert to_str(formula) == "G (press_button -> start_pump)"
