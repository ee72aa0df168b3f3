"""Trace semantics of LTL over ultimately-periodic words.

An infinite word is represented as a *lasso*: a finite ``prefix`` followed
by a non-empty ``loop`` repeated forever.  Every omega-regular language is
non-empty iff it contains such a word, so lassos are sufficient both for
testing the tableau construction against the textbook semantics and for
presenting counterexamples to the user.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Sequence, Tuple

from .ast import (
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

Letter = FrozenSet[str]


@dataclass(frozen=True)
class LassoWord:
    """An ultimately periodic word ``prefix . loop^omega``.

    Each position is the set of atomic propositions holding there.
    """

    prefix: Tuple[Letter, ...]
    loop: Tuple[Letter, ...]

    def __post_init__(self) -> None:
        if not self.loop:
            raise ValueError("lasso loop must be non-empty")

    @staticmethod
    def of(prefix: Sequence[Sequence[str]], loop: Sequence[Sequence[str]]) -> "LassoWord":
        return LassoWord(
            tuple(frozenset(letter) for letter in prefix),
            tuple(frozenset(letter) for letter in loop),
        )

    def letter(self, position: int) -> Letter:
        if position < len(self.prefix):
            return self.prefix[position]
        return self.loop[(position - len(self.prefix)) % len(self.loop)]

    def canonical_position(self, position: int) -> int:
        """Fold *position* into the fundamental domain ``[0, len(prefix) +
        len(loop))`` — suffixes at folded positions are identical words."""
        if position < len(self.prefix):
            return position
        return len(self.prefix) + (position - len(self.prefix)) % len(self.loop)

    def __len__(self) -> int:
        return len(self.prefix) + len(self.loop)


def satisfies(word: LassoWord, formula: Formula) -> bool:
    """Decide ``word, 0 |= formula`` by memoised structural recursion.

    Positions are folded into the fundamental domain of the lasso, so the
    recursion terminates: there are only ``len(word)`` distinct suffixes.
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
        position = self.word.canonical_position(position)
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
        letter = self.word.letter(position)
        if isinstance(formula, Bool):
            return formula.value
        if isinstance(formula, Atom):
            return formula.name in letter
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
