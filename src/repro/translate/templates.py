"""LTL templates: from clause structure to temporal formulas (Section IV-C).

The translator follows the property patterns of Dwyer et al. as selected by
the paper (Universality and Existence) plus the subordinator/modifier
mapping implied by the appendix's gold formulas:

* condition subclauses (``if``/``when``/``whenever``/``once``/``after``/
  ``while``) become the antecedent of an implication under Always:
  ``G (C -> M)``; several nested conditions fold as
  ``G (C1 -> G (C2 -> M))`` (Req-17.4);
* the ``eventually``/``sometimes`` modifiers and the future modality
  ``will`` wrap the clause in Eventually (Req-01, Req-07, Req-17.1);
* ``always``/``globally`` wrap the clause in Always;
* a trailing ``until`` subclause produces the weak-until template of
  Req-49: ``!C -> (M W C)``;
* a trailing ``before`` subclause produces ``!C U M``;
* ``next`` prefixes the clause with one Next operator (configurable: the
  paper's own tool drops it — see TranslationOptions.next_as_x);
* a constraint "in t seconds" prefixes the clause with ``t`` Next
  operators (Section IV-E), subsequently shortened by time abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..logic.ast import (
    And,
    Atom,
    Finally,
    Formula,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Until,
    WeakUntil,
    next_chain,
)
from ..nlp import lexicon
from ..nlp.grammar import Clause, ClauseGroup, Sentence, StructuredEnglishError
from .propositions import subject_proposition
from .semantics import SemanticAnalysis, no_reasoning


@dataclass(frozen=True)
class TranslationOptions:
    """Knobs of the translation stage."""

    #: Interpret the "next" marker as an X operator.  The paper's grammar
    #: lists "next" as a subordinator, but the appendix's gold formulas drop
    #: it (Req-13.1, Req-20, Req-44); False reproduces the tool's output.
    next_as_x: bool = True
    #: Apply Algorithm 1's proposition reduction.
    semantic_reasoning: bool = True


def clause_formula(
    clause: Clause,
    analysis: Optional[SemanticAnalysis] = None,
    options: TranslationOptions = TranslationOptions(),
    subject_hint: Optional[str] = None,
) -> Formula:
    """The formula of a single clause (propositions + local operators).

    A pronoun subject ("it") resolves to *subject_hint*, the enclosing
    main clause's subject (Req-49).
    """
    if analysis is None or not options.semantic_reasoning:
        analysis = no_reasoning()
    literals: List[Formula] = []
    for subject in clause.subjects:
        if subject == "it":
            if subject_hint is None:
                raise StructuredEnglishError(
                    f"unresolvable pronoun in clause {clause.text!r}"
                )
            subject = subject_hint
        reduced = analysis.reduce(subject_proposition(clause, subject))
        literal: Formula = Atom(reduced.name)
        if reduced.negated:
            literal = Not(literal)
        literals.append(literal)
    combine = Or if clause.subject_conjunction == "or" else And
    formula = literals[0]
    for literal in literals[1:]:
        formula = combine(formula, literal)

    if clause.modality in lexicon.FUTURE_MODALITIES:
        formula = Finally(formula)
    if clause.modifier in lexicon.EVENTUALLY_MODIFIERS:
        formula = Finally(formula)
    elif clause.modifier in lexicon.MODIFIERS and clause.modifier is not None:
        formula = Globally(formula)
    if clause.constraint is not None:
        formula = next_chain(formula, clause.constraint.ticks())
    if clause.next_marker and options.next_as_x:
        formula = Next(formula)
    return formula


def group_formula(
    group: ClauseGroup,
    analysis: Optional[SemanticAnalysis],
    options: TranslationOptions,
    subject_hint: Optional[str] = None,
) -> Formula:
    """Combine a clause group with its and/or connectives (left to right)."""
    formula = clause_formula(group.clauses[0], analysis, options, subject_hint)
    for connective, clause in zip(group.connectives, group.clauses[1:]):
        right = clause_formula(clause, analysis, options, subject_hint)
        formula = (And if connective == "and" else Or)(formula, right)
    return formula


def sentence_formula(
    sentence: Sentence,
    analysis: Optional[SemanticAnalysis] = None,
    options: TranslationOptions = TranslationOptions(),
) -> Formula:
    """Translate a full requirement sentence into LTL."""
    main_subject = sentence.main.clauses[0].subjects[0] if sentence.main.clauses else None
    consequent = group_formula(sentence.main, analysis, options)

    # All condition subordinators share the implication template; "after"
    # and "once" describe the same triggering semantics at the abstraction
    # level of the paper (state propositions, not events).
    antecedents: List[Formula] = [
        group_formula(sub.group, analysis, options) for sub in sentence.pre
    ]
    until_formula: Optional[Formula] = None
    before_formula: Optional[Formula] = None
    for sub in sentence.post:
        body = group_formula(sub.group, analysis, options, subject_hint=main_subject)
        if sub.subordinator == "until":
            until_formula = body
        elif sub.subordinator == "before":
            before_formula = body
        else:
            antecedents.append(body)

    if until_formula is not None:
        # Req-49 template: !C -> (M W C).
        consequent = Implies(
            Not(until_formula), WeakUntil(consequent, until_formula)
        )
    if before_formula is not None:
        consequent = Until(Not(before_formula), consequent)

    if antecedents:
        formula = consequent
        for antecedent in reversed(antecedents):
            formula = Globally(Implies(antecedent, formula))
        return formula

    if before_formula is not None:
        # A bare ordering constraint is a one-shot property, not an
        # invariant ("the door is closed before the pump is started").
        return consequent
    if _is_existence(sentence):
        return consequent
    # A bare declarative sentence is an invariant (Universality).
    return Globally(consequent)


def _is_existence(sentence: Sentence) -> bool:
    """Existence-pattern sentences keep their top-level Eventually."""
    for clause in sentence.main.clauses:
        if clause.modifier in lexicon.EVENTUALLY_MODIFIERS:
            return True
        if clause.modality in lexicon.FUTURE_MODALITIES:
            return True
    return False
