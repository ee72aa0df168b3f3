"""CNF formulas and fresh-variable management.

Literals use the DIMACS convention: variables are positive integers and a
negative integer denotes the negation of the corresponding variable.  The
:class:`CNF` container also keeps a name table, so the encodings that
name their variables (Tseitin's atoms and the bounded-synthesis
encoding) get one variable per name: :meth:`CNF.var` reuses it and
:meth:`CNF.new_var` rejects a duplicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

Lit = int
Clause = Sequence[Lit]


@dataclass
class CNF:
    """A conjunction of clauses with a fresh-variable counter."""

    num_vars: int = 0
    clauses: List[List[Lit]] = field(default_factory=list)
    _names: Dict[str, int] = field(default_factory=dict)

    def new_var(self, name: Optional[str] = None) -> int:
        """Allocate a fresh variable, optionally registering *name* for it."""
        self.num_vars += 1
        var = self.num_vars
        if name is not None:
            if name in self._names:
                raise ValueError(f"duplicate variable name: {name}")
            self._names[name] = var
        return var

    def var(self, name: str) -> int:
        """The variable registered under *name*, allocating it on first use."""
        existing = self._names.get(name)
        if existing is not None:
            return existing
        return self.new_var(name)

    def add(self, clause: Iterable[Lit]) -> None:
        """Add a clause, extending the variable count as needed."""
        lits = list(clause)
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self.num_vars = max(self.num_vars, abs(lit))
        self.clauses.append(lits)

    # -- gate encodings -----------------------------------------------------
    def add_iff_and(self, out: Lit, inputs: Sequence[Lit]) -> None:
        """Encode ``out <-> AND(inputs)``."""
        for lit in inputs:
            self.add([-out, lit])
        self.add([out] + [-lit for lit in inputs])

    def add_iff_or(self, out: Lit, inputs: Sequence[Lit]) -> None:
        """Encode ``out <-> OR(inputs)``."""
        for lit in inputs:
            self.add([-lit, out])
        self.add([-out] + list(inputs))
