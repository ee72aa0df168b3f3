"""Tests for the LTL core: AST, parser, printer, NNF, simplifier, semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Finally,
    Globally,
    Implies,
    LassoWord,
    LTLSyntaxError,
    Next,
    Not,
    Or,
    Release,
    Until,
    WeakUntil,
    atoms,
    conj,
    disj,
    is_nnf,
    next_chain,
    next_depth,
    parse,
    satisfies,
    simplify,
    size,
    to_nnf,
    to_str,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")


class TestAst:
    def test_operator_overloads(self):
        assert (a & b) == And(a, b)
        assert (a | b) == Or(a, b)
        assert (~a) == Not(a)
        assert (a >> b) == Implies(a, b)

    def test_equality_is_structural_and_class_sensitive(self):
        assert Next(a) != Finally(a)
        assert Until(a, b) != Release(a, b)
        assert And(a, b) != And(b, a)
        assert And(a, b) == And(a, b)

    def test_hashable(self):
        assert len({And(a, b), And(a, b), Or(a, b)}) == 2

    def test_empty_atom_rejected(self):
        with pytest.raises(ValueError):
            Atom("")

    def test_conj_disj(self):
        assert conj([]) == TRUE
        assert disj([]) == FALSE
        assert conj([a]) == a
        assert conj([a, b, c]) == And(a, And(b, c))
        assert disj([a, b]) == Or(a, b)

    def test_next_chain(self):
        assert next_chain(a, 0) == a
        assert next_chain(a, 3) == Next(Next(Next(a)))
        with pytest.raises(ValueError):
            next_chain(a, -1)

    def test_atoms_and_size(self):
        formula = Globally(Implies(a, Finally(And(b, Not(a)))))
        assert atoms(formula) == {"a", "b"}
        assert size(formula) == 8

    def test_next_depth(self):
        assert next_depth(a) == 0
        assert next_depth(parse("G(a -> X X X b)")) == 3
        assert next_depth(parse("X a && X X b")) == 2

    def test_str_renders_once_per_node(self, monkeypatch):
        from repro.logic import printer

        renders = []
        real = printer._render
        monkeypatch.setattr(
            printer,
            "_render",
            lambda *args: renders.append(args[0]) or real(*args),
        )
        formula = Globally(Implies(Atom("str_probe"), Next(b)))
        assert str(formula) == "G (str_probe -> X b)"
        assert renders
        renders.clear()
        assert str(formula) == "G (str_probe -> X b)"
        assert repr(formula) == "Formula('G (str_probe -> X b)')"
        assert renders == []


class TestParser:
    @pytest.mark.parametrize(
        "text",
        [
            "a",
            "!a",
            "a && b || c",
            "a -> b -> c",
            "G (a -> F b)",
            "a U b",
            "a W b",
            "a R b",
            "X X X a",
            "[] (a -> <> b)",
            "true && false",
            "pulse_wave && !arterial-line",
        ],
    )
    def test_roundtrip(self, text):
        formula = parse(text)
        assert parse(to_str(formula)) == formula

    def test_precedence(self):
        assert parse("a && b || c") == Or(And(a, b), c)
        assert parse("a -> b -> c") == Implies(a, Implies(b, c))
        assert parse("a U b && c") == And(Until(a, b), c)
        assert parse("!a U b") == Until(Not(a), b)
        assert parse("F a U b") == Until(Finally(a), b)

    def test_paper_style_operators(self):
        assert parse("[] p") == Globally(Atom("p"))
        assert parse("<> p") == Finally(Atom("p"))

    def test_hyphenated_identifiers(self):
        assert parse("auto-control_mode") == Atom("auto-control_mode")
        # '->' must still parse as implication after an identifier
        assert parse("a->b") == Implies(a, b)

    @pytest.mark.parametrize("text", ["", "&& a", "(a", "a b", "a &&", "a @ b"])
    def test_syntax_errors(self, text):
        with pytest.raises(LTLSyntaxError):
            parse(text)

    def test_paper_appendix_formula(self):
        formula = parse(
            "G ((pulse_wave || arterial_line) && select_cuff -> trigger_corroboration)"
        )
        assert atoms(formula) == {
            "pulse_wave",
            "arterial_line",
            "select_cuff",
            "trigger_corroboration",
        }


class TestNNF:
    @pytest.mark.parametrize(
        "text",
        [
            "!(a && b)",
            "!(a U b)",
            "!G a",
            "!F a",
            "!(a -> b)",
            "!(a <-> b)",
            "!X a",
            "!(a W b)",
            "G (a -> F b)",
            "!(a R b)",
        ],
    )
    def test_nnf_shape(self, text):
        assert is_nnf(to_nnf(parse(text)))

    def test_double_negation(self):
        assert to_nnf(parse("!!a")) == a

    def test_weak_until_expansion(self):
        assert to_nnf(parse("a W b")) == Release(b, Or(a, b))


def words(max_aps=3, max_len=4):
    letters = st.frozensets(
        st.sampled_from([f"p{i}" for i in range(max_aps)]), max_size=max_aps
    )
    return st.builds(
        LassoWord,
        st.lists(letters, max_size=max_len).map(tuple),
        st.lists(letters, min_size=1, max_size=max_len).map(tuple),
    )


def formulas(max_aps=3):
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
        max_leaves=8,
    )


class TestSemantics:
    def test_globally_on_loop(self):
        word = LassoWord.of([], [["p"]])
        assert satisfies(word, parse("G p"))
        assert not satisfies(word, parse("G !p"))

    def test_until_needs_goal(self):
        word = LassoWord.of([["p"], ["p"]], [["q"]])
        assert satisfies(word, parse("p U q"))
        word_no_goal = LassoWord.of([], [["p"]])
        assert not satisfies(word_no_goal, parse("p U q"))
        assert satisfies(word_no_goal, parse("p W q"))

    def test_next_into_loop(self):
        word = LassoWord.of([["p"]], [["q"], []])
        assert satisfies(word, parse("X q"))
        assert satisfies(word, parse("X X !q"))
        assert satisfies(word, parse("G F q"))
        assert not satisfies(word, parse("F G q"))

    def test_release(self):
        always_b = LassoWord.of([], [["b"]])
        assert satisfies(always_b, parse("a R b"))
        released = LassoWord.of([["b"], ["a", "b"]], [[]])
        assert satisfies(released, parse("a R b"))
        broken = LassoWord.of([["b"]], [[]])
        assert not satisfies(broken, parse("a R b"))

    def test_loop_lozenge_inside_box(self):
        word = LassoWord.of([], [[], [], ["p"]])
        assert satisfies(word, parse("G F p"))

    @given(formulas(), words())
    @settings(max_examples=150, deadline=None)
    def test_nnf_preserves_semantics(self, formula, word):
        assert satisfies(word, formula) == satisfies(word, to_nnf(formula))

    @given(formulas(), words())
    @settings(max_examples=150, deadline=None)
    def test_simplify_preserves_semantics(self, formula, word):
        assert satisfies(word, formula) == satisfies(word, simplify(formula))

    @given(formulas(), words())
    @settings(max_examples=100, deadline=None)
    def test_negation_flips(self, formula, word):
        assert satisfies(word, Not(formula)) == (not satisfies(word, formula))

    @given(formulas())
    @settings(max_examples=100, deadline=None)
    def test_printer_parser_roundtrip(self, formula):
        assert parse(to_str(formula)) == formula


class TestSimplify:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("true && a", "a"),
            ("a || true", "true"),
            ("!!a", "a"),
            ("X false", "false"),
            ("F F a", "F a"),
            ("G G a", "G a"),
            ("a -> a", "true"),
            ("a U a", "a"),
            ("false R a", "G a"),
            ("true U a", "F a"),
            ("a <-> true", "a"),
            ("a W a", "a"),
            ("(true && a) || false", "a"),
        ],
    )
    def test_rules(self, text, expected):
        assert simplify(parse(text)) == parse(expected)

    def test_idempotent(self):
        formula = parse("G ((true && a) -> F (b || false))")
        once = simplify(formula)
        assert simplify(once) == once
