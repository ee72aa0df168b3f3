"""Negation normal form and expansion of derived operators.

The tableau construction of :mod:`repro.automata.gpvw` expects formulas in
*negation normal form* (NNF): negations appear only in front of atomic
propositions and the only connectives are ``&&``, ``||``, ``X``, ``U`` and
``R``.  ``F p`` is rewritten as ``true U p``, ``G p`` as ``false R p`` and
``p W q`` as ``q R (p || q)``.
"""

from __future__ import annotations

from .ast import (
    FALSE,
    TRUE,
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


def to_nnf(formula: Formula) -> Formula:
    """Rewrite *formula* into negation normal form over {&&, ||, X, U, R}."""
    return _positive(formula)


def _positive(formula: Formula) -> Formula:
    # Identity-keyed memoisation on the interned node: shared subtrees are
    # normalised once, and the cache lives exactly as long as the formula.
    cached = formula._nnf_pos
    if cached is None:
        cached = _positive_uncached(formula)
        object.__setattr__(formula, "_nnf_pos", cached)
    return cached


def _negative(formula: Formula) -> Formula:
    cached = formula._nnf_neg
    if cached is None:
        cached = _negative_uncached(formula)
        object.__setattr__(formula, "_nnf_neg", cached)
    return cached


def _positive_uncached(formula: Formula) -> Formula:
    if isinstance(formula, (Bool, Atom)):
        return formula
    if isinstance(formula, Not):
        return _negative(formula.operand)
    if isinstance(formula, Next):
        return Next(_positive(formula.operand))
    if isinstance(formula, Finally):
        return Until(TRUE, _positive(formula.operand))
    if isinstance(formula, Globally):
        return Release(FALSE, _positive(formula.operand))
    if isinstance(formula, And):
        return And(_positive(formula.left), _positive(formula.right))
    if isinstance(formula, Or):
        return Or(_positive(formula.left), _positive(formula.right))
    if isinstance(formula, Implies):
        return Or(_negative(formula.left), _positive(formula.right))
    if isinstance(formula, Iff):
        left, right = formula.left, formula.right
        return Or(
            And(_positive(left), _positive(right)),
            And(_negative(left), _negative(right)),
        )
    if isinstance(formula, Until):
        return Until(_positive(formula.left), _positive(formula.right))
    if isinstance(formula, Release):
        return Release(_positive(formula.left), _positive(formula.right))
    if isinstance(formula, WeakUntil):
        # p W q  ==  q R (p || q)
        left = _positive(formula.left)
        right = _positive(formula.right)
        return Release(right, Or(left, right))
    raise TypeError(f"unknown formula node: {formula!r}")


def _negative_uncached(formula: Formula) -> Formula:
    if isinstance(formula, Bool):
        return FALSE if formula.value else TRUE
    if isinstance(formula, Atom):
        return Not(formula)
    if isinstance(formula, Not):
        return _positive(formula.operand)
    if isinstance(formula, Next):
        return Next(_negative(formula.operand))
    if isinstance(formula, Finally):
        # !F p == G !p == false R !p
        return Release(FALSE, _negative(formula.operand))
    if isinstance(formula, Globally):
        # !G p == F !p == true U !p
        return Until(TRUE, _negative(formula.operand))
    if isinstance(formula, And):
        return Or(_negative(formula.left), _negative(formula.right))
    if isinstance(formula, Or):
        return And(_negative(formula.left), _negative(formula.right))
    if isinstance(formula, Implies):
        return And(_positive(formula.left), _negative(formula.right))
    if isinstance(formula, Iff):
        left, right = formula.left, formula.right
        return Or(
            And(_positive(left), _negative(right)),
            And(_negative(left), _positive(right)),
        )
    if isinstance(formula, Until):
        return Release(_negative(formula.left), _negative(formula.right))
    if isinstance(formula, Release):
        return Until(_negative(formula.left), _negative(formula.right))
    if isinstance(formula, WeakUntil):
        # !(p W q) == !q U (!p && !q)
        not_left = _negative(formula.left)
        not_right = _negative(formula.right)
        return Until(not_right, And(not_left, not_right))
    raise TypeError(f"unknown formula node: {formula!r}")
