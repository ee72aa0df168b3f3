"""LTL references: the textbook trace semantics over lasso words, and
the shape of negation normal form.

``satisfies`` decides ``word, 0 |= formula`` straight from the
definitions, so the tests can check what production computes by other
means against it: the GPVW automata's witness words, the NNF rewrite
and the simplifier.  ``lasso``, ``letter`` and ``canonical_position``
build and index :class:`~repro.logic.semantics.LassoWord`\\ s for it and
for ``oracles.automata.accepts``; ``is_nnf`` is the shape the tableau
construction expects of :func:`~repro.logic.nnf.to_nnf`'s output.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.logic.ast import (
    And,
    Atom,
    Bool,
    Finally,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Until,
    WeakUntil,
)
from repro.logic.semantics import Letter, LassoWord


def lasso(prefix: Sequence[Sequence[str]], loop: Sequence[Sequence[str]]) -> LassoWord:
    """The word ``prefix . loop^omega`` from lists of proposition names."""
    return LassoWord(
        tuple(frozenset(letter) for letter in prefix),
        tuple(frozenset(letter) for letter in loop),
    )


def letter(word: LassoWord, position: int) -> Letter:
    """The propositions holding at *position* of *word*."""
    if position < len(word.prefix):
        return word.prefix[position]
    return word.loop[(position - len(word.prefix)) % len(word.loop)]


def canonical_position(word: LassoWord, position: int) -> int:
    """Fold *position* into the fundamental domain ``[0, len(prefix) +
    len(loop))`` — suffixes at folded positions are identical words."""
    if position < len(word.prefix):
        return position
    return len(word.prefix) + (position - len(word.prefix)) % len(word.loop)


def satisfies(word: LassoWord, formula: Formula) -> bool:
    """Decide ``word, 0 |= formula`` by memoised structural recursion.

    Positions are folded into the fundamental domain of the lasso, so the
    recursion terminates: there are only ``len(prefix) + len(loop)``
    distinct suffixes.
    """
    return _Evaluator(word).holds(formula, 0)


class _Evaluator:
    def __init__(self, word: LassoWord) -> None:
        self.word = word
        self.cache: Dict[Tuple[Formula, int], bool] = {}
        # Positions currently being evaluated, used to resolve the fixpoint
        # of U/R through the loop: U defaults to false (least fixpoint),
        # R defaults to true (greatest fixpoint).
        self.in_progress: Dict[Tuple[Formula, int], bool] = {}

    def holds(self, formula: Formula, position: int) -> bool:
        position = canonical_position(self.word, position)
        key = (formula, position)
        if key in self.cache:
            return self.cache[key]
        if key in self.in_progress:
            return self.in_progress[key]
        if isinstance(formula, (Until, Finally)):
            self.in_progress[key] = False
        elif isinstance(formula, (Release, Globally, WeakUntil)):
            self.in_progress[key] = True
        result = self._evaluate(formula, position)
        self.in_progress.pop(key, None)
        self.cache[key] = result
        return result

    def _evaluate(self, formula: Formula, position: int) -> bool:
        holding = letter(self.word, position)
        if isinstance(formula, Bool):
            return formula.value
        if isinstance(formula, Atom):
            return formula.name in holding
        if isinstance(formula, Not):
            return not self.holds(formula.operand, position)
        if isinstance(formula, And):
            return self.holds(formula.left, position) and self.holds(formula.right, position)
        if isinstance(formula, Or):
            return self.holds(formula.left, position) or self.holds(formula.right, position)
        if isinstance(formula, Implies):
            return (not self.holds(formula.left, position)) or self.holds(
                formula.right, position
            )
        if isinstance(formula, Iff):
            return self.holds(formula.left, position) == self.holds(formula.right, position)
        if isinstance(formula, Next):
            return self.holds(formula.operand, position + 1)
        if isinstance(formula, Finally):
            return self.holds(formula.operand, position) or self.holds(formula, position + 1)
        if isinstance(formula, Globally):
            return self.holds(formula.operand, position) and self.holds(formula, position + 1)
        if isinstance(formula, Until):
            return self.holds(formula.right, position) or (
                self.holds(formula.left, position) and self.holds(formula, position + 1)
            )
        if isinstance(formula, Release):
            return self.holds(formula.right, position) and (
                self.holds(formula.left, position) or self.holds(formula, position + 1)
            )
        if isinstance(formula, WeakUntil):
            return self.holds(formula.right, position) or (
                self.holds(formula.left, position) and self.holds(formula, position + 1)
            )
        raise TypeError(f"unknown formula node: {formula!r}")


def is_nnf(formula: Formula) -> bool:
    """True when *formula* only uses NNF connectives with atomic negation."""
    if isinstance(formula, Bool):
        return True
    if isinstance(formula, Atom):
        return True
    if isinstance(formula, Not):
        return isinstance(formula.operand, Atom)
    if isinstance(formula, (And, Or, Until, Release, Next)):
        return all(is_nnf(child) for child in formula.children())
    return False
