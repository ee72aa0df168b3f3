"""SAT substrate: CNF, Tseitin encoding and CDCL."""

from .cdcl import CDCLSolver, SatResult
from .cnf import CNF, Clause, Lit
from .tseitin import NotPropositional, encode

__all__ = [
    "CDCLSolver",
    "CNF",
    "Clause",
    "Lit",
    "NotPropositional",
    "SatResult",
    "encode",
]
