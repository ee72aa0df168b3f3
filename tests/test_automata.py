"""Tests for the automata substrate: GPVW, emptiness, acceptance, LTL-SAT."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import (
    BuchiAutomaton,
    Label,
    find_witness,
    is_valid,
    satisfiable,
    translate,
)
from repro.logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Finally,
    Globally,
    Implies,
    LassoWord,
    Next,
    Not,
    Or,
    Release,
    Until,
    WeakUntil,
    parse,
)

from oracles.automata import accepts, equivalent, is_satisfiable
from oracles.ltl import lasso, satisfies


class TestLabel:
    def test_matches(self):
        label = Label.of(["a"], ["b"])
        assert label.matches(frozenset({"a"}))
        assert label.matches(frozenset({"a", "c"}))
        assert not label.matches(frozenset({"a", "b"}))
        assert not label.matches(frozenset())

    def test_restrict(self):
        label = Label.of(["a", "b"], ["c"])
        assert label.restrict(frozenset({"a", "c"})) == Label.of(["a"], ["c"])

    def test_str(self):
        assert str(Label.of(["a"], ["b"])) == "a && !b"
        assert str(Label()) == "true"


class TestTranslateBasics:
    def test_false_is_empty(self):
        assert find_witness(translate(FALSE)) is None

    def test_true_is_nonempty(self):
        assert find_witness(translate(TRUE)) is not None

    def test_contradiction_is_empty(self):
        assert find_witness(translate(parse("a && !a"))) is None
        assert find_witness(translate(parse("G a && F !a"))) is None
        assert find_witness(translate(parse("X a && X !a"))) is None

    def test_atom(self):
        automaton = translate(parse("a"))
        assert accepts(automaton, lasso([["a"]], [[]]))
        assert not accepts(automaton, lasso([[]], [["a"]]))

    def test_globally_finally(self):
        automaton = translate(parse("G F p"))
        assert accepts(automaton, lasso([], [[], ["p"]]))
        assert not accepts(automaton, lasso([["p"]], [[]]))

    def test_until(self):
        automaton = translate(parse("a U b"))
        assert accepts(automaton, lasso([["a"], ["a"], ["b"]], [[]]))
        assert not accepts(automaton, lasso([["a"]], [["a"]]))

    def test_release(self):
        automaton = translate(parse("a R b"))
        assert accepts(automaton, lasso([], [["b"]]))
        assert accepts(automaton, lasso([["b"], ["a", "b"]], [[]]))
        assert not accepts(automaton, lasso([["b"]], [[]]))

    def test_next_chain(self):
        automaton = translate(parse("X X X p"))
        assert accepts(automaton, lasso([[], [], [], ["p"]], [[]]))
        assert not accepts(automaton, lasso([[], [], [], []], [["p"]]))

    def test_long_next_chain_no_recursion_error(self):
        # A linear chain of 150 X operators exceeds the default Python
        # recursion limit if the tableau were built recursively.  (A chain
        # *under* G is intentionally avoided: overlapping obligations blow
        # up exponentially — the very problem Section IV-E's abstraction
        # addresses.)
        formula = parse("X " * 150 + "b")
        automaton = translate(formula)
        assert automaton.num_states > 150
        assert accepts(automaton, lasso([[]] * 150 + [["b"]], [[]]))
        assert not accepts(automaton, lasso([[]] * 150, [[]]))


class TestDegeneralize:
    def test_single_set_unchanged(self):
        automaton = translate(parse("F p"))
        degeneralized = automaton.degeneralize()
        assert len(degeneralized.accepting_sets) == 1

    def test_language_preserved(self):
        for text, words in [
            (
                "G F a && G F b",
                [
                    (lasso([], [["a"], ["b"]]), True),
                    (lasso([], [["a"]]), False),
                    (lasso([], [["a", "b"]]), True),
                    (lasso([["a"], ["b"]], [[]]), False),
                ],
            ),
            (
                "F a && F b && F c",
                [
                    (lasso([["a"], ["b"]], [["c"]]), True),
                    (lasso([["a"]], [["b"]]), False),
                ],
            ),
        ]:
            automaton = translate(parse(text))
            degeneralized = automaton.degeneralize()
            assert len(degeneralized.accepting_sets) == 1
            for word, expected in words:
                assert accepts(automaton, word) == expected, (text, word)
                assert accepts(degeneralized, word) == expected, (text, word)


class TestWitness:
    def test_witness_word_satisfies_formula(self):
        for text in [
            "F p",
            "G F p",
            "a U b",
            "G (a -> X b)",
            "F (a && X !a)",
            "(F a) && (F !a)",
        ]:
            formula = parse(text)
            witness = satisfiable(formula)
            assert witness is not None, text
            assert satisfies(witness.word, formula), text

    def test_unsat_formulas_have_no_witness(self):
        for text in ["false", "a && !a", "F a && G !a", "(a U b) && G !b"]:
            assert satisfiable(parse(text)) is None, text


class TestLtlSat:
    def test_validity(self):
        assert is_valid(parse("a || !a"))
        assert is_valid(parse("G a -> a"))
        assert is_valid(parse("G a -> F a"))
        assert not is_valid(parse("F a -> G a"))

    def test_equivalence_of_duals(self):
        assert equivalent(parse("!(a U b)"), parse("!a R !b"))
        assert equivalent(parse("!F a"), parse("G !a"))
        assert equivalent(parse("a W b"), parse("(a U b) || G a"))
        assert equivalent(parse("F F a"), parse("F a"))
        assert not equivalent(parse("a U b"), parse("a W b"))

    def test_paper_footnote_formula_is_satisfiable(self):
        # The footnote-1 specification is satisfiable but (later) unrealizable.
        formula = parse("G (output <-> X X X input)")
        assert is_satisfiable(formula)


def formulas(max_aps=2):
    names = [f"p{i}" for i in range(max_aps)]
    base = st.sampled_from([Atom(n) for n in names] + [TRUE, FALSE])
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(Next, inner),
            st.builds(Finally, inner),
            st.builds(Globally, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Implies, inner, inner),
            st.builds(Until, inner, inner),
            st.builds(Release, inner, inner),
            st.builds(WeakUntil, inner, inner),
        ),
        max_leaves=6,
    )


def words(max_aps=2, max_len=3):
    letters = st.frozensets(
        st.sampled_from([f"p{i}" for i in range(max_aps)]), max_size=max_aps
    )
    return st.builds(
        LassoWord,
        st.lists(letters, max_size=max_len).map(tuple),
        st.lists(letters, min_size=1, max_size=max_len).map(tuple),
    )


class TestGPVWAgainstSemantics:
    @given(formulas(), words())
    @settings(max_examples=120, deadline=None)
    def test_acceptance_matches_trace_semantics(self, formula, word):
        automaton = translate(formula)
        assert accepts(automaton, word) == satisfies(word, formula)

    @given(formulas())
    @settings(max_examples=60, deadline=None)
    def test_witness_if_any_satisfies_formula(self, formula):
        witness = satisfiable(formula)
        if witness is not None:
            assert satisfies(witness.word, formula)

    @given(formulas(), words())
    @settings(max_examples=60, deadline=None)
    def test_degeneralization_preserves_acceptance(self, formula, word):
        automaton = translate(formula)
        assert accepts(automaton.degeneralize(), word) == satisfies(word, formula)


class TestBuchiDataStructure:
    def test_inconsistent_transition_dropped(self):
        automaton = BuchiAutomaton()
        s0 = automaton.new_state()
        s1 = automaton.new_state()
        automaton.add_transition(s0, Label.of(["a"], ["a"]), s1)
        assert automaton.successors(s0) == []

    def test_reachable_states(self):
        automaton = BuchiAutomaton()
        s0, s1, s2 = (automaton.new_state() for _ in range(3))
        automaton.initial = {s0}
        automaton.add_transition(s0, Label(), s1)
        assert automaton.reachable_states() == {s0, s1}
        assert s2 not in automaton.reachable_states()
