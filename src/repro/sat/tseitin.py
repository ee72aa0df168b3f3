"""Tseitin transformation from propositional formulas to CNF.

Temporal operators are rejected: this module encodes the propositional
constraints of the obligation certificate's SAT solves (a letter's
obligations, a constant word's conjunction) in
:mod:`repro.synthesis.invariants`.
"""

from __future__ import annotations

from typing import Dict

from ..logic.ast import (
    And,
    Atom,
    Bool,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
)
from .cnf import CNF, Lit


class NotPropositional(TypeError):
    """Raised when a formula contains temporal operators."""


def encode(formula: Formula, cnf: CNF) -> Lit:
    """Encode *formula* into *cnf*, returning a literal equisatisfiable with
    it.  Atom names are registered in the CNF name table, so repeated atoms
    share variables across calls on the same CNF."""
    cache: Dict[Formula, Lit] = {}
    return _encode(formula, cnf, cache)


def _encode(formula: Formula, cnf: CNF, cache: Dict[Formula, Lit]) -> Lit:
    cached = cache.get(formula)
    if cached is not None:
        return cached
    lit = _encode_uncached(formula, cnf, cache)
    cache[formula] = lit
    return lit


def _encode_uncached(formula: Formula, cnf: CNF, cache: Dict[Formula, Lit]) -> Lit:
    if isinstance(formula, Bool):
        var = cnf.var("__true__")
        cnf.add([var])  # idempotent enough; duplicate unit clauses are cheap
        return var if formula.value else -var
    if isinstance(formula, Atom):
        return cnf.var(formula.name)
    if isinstance(formula, Not):
        return -_encode(formula.operand, cnf, cache)
    if isinstance(formula, And):
        left = _encode(formula.left, cnf, cache)
        right = _encode(formula.right, cnf, cache)
        out = cnf.new_var()
        cnf.add_iff_and(out, [left, right])
        return out
    if isinstance(formula, Or):
        left = _encode(formula.left, cnf, cache)
        right = _encode(formula.right, cnf, cache)
        out = cnf.new_var()
        cnf.add_iff_or(out, [left, right])
        return out
    if isinstance(formula, Implies):
        left = _encode(formula.left, cnf, cache)
        right = _encode(formula.right, cnf, cache)
        out = cnf.new_var()
        cnf.add_iff_or(out, [-left, right])
        return out
    if isinstance(formula, Iff):
        left = _encode(formula.left, cnf, cache)
        right = _encode(formula.right, cnf, cache)
        out = cnf.new_var()
        # out <-> (left <-> right)
        cnf.add([-out, -left, right])
        cnf.add([-out, left, -right])
        cnf.add([out, left, right])
        cnf.add([out, -left, -right])
        return out
    raise NotPropositional(f"temporal operator in propositional context: {formula!r}")
