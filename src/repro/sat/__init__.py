"""SAT substrate: CNF, Tseitin encoding and CDCL."""

from .cdcl import CDCLSolver, SatResult, solve
from .cnf import CNF, Clause, Lit
from .tseitin import NotPropositional, assert_formula, encode

__all__ = [
    "CDCLSolver",
    "CNF",
    "Clause",
    "Lit",
    "NotPropositional",
    "SatResult",
    "assert_formula",
    "encode",
    "solve",
]
