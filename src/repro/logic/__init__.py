"""LTL core: syntax, parsing, printing, normal forms and lasso words."""

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
    atoms,
    conj,
    next_chain,
    next_depth,
    walk,
)
from .nnf import to_nnf
from .parser import LTLSyntaxError, parse
from .printer import to_str
from .rewrite import simplify
from .semantics import LassoWord

__all__ = [
    "FALSE",
    "TRUE",
    "And",
    "Atom",
    "Bool",
    "Finally",
    "Formula",
    "Globally",
    "Iff",
    "Implies",
    "LassoWord",
    "LTLSyntaxError",
    "Next",
    "Not",
    "Or",
    "Release",
    "Until",
    "WeakUntil",
    "atoms",
    "conj",
    "next_chain",
    "next_depth",
    "parse",
    "simplify",
    "to_nnf",
    "to_str",
    "walk",
]
