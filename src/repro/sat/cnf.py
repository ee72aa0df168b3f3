"""CNF formulas and fresh-variable management.

Literals use the DIMACS convention: variables are positive integers and a
negative integer denotes the negation of the corresponding variable.  The
:class:`CNF` container also keeps an optional name table so encodings (the
bounded-synthesis and bit-blasting modules) can build readable models.
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
    _by_var: Dict[int, str] = field(default_factory=dict)

    def new_var(self, name: Optional[str] = None) -> int:
        """Allocate a fresh variable, optionally registering *name* for it."""
        self.num_vars += 1
        var = self.num_vars
        if name is not None:
            if name in self._names:
                raise ValueError(f"duplicate variable name: {name}")
            self._names[name] = var
            self._by_var[var] = name
        return var

    def var(self, name: str) -> int:
        """The variable registered under *name*, allocating it on first use."""
        existing = self._names.get(name)
        if existing is not None:
            return existing
        return self.new_var(name)

    def name_of(self, var: int) -> Optional[str]:
        return self._by_var.get(abs(var))

    def add(self, clause: Iterable[Lit]) -> None:
        """Add a clause, extending the variable count as needed."""
        lits = list(clause)
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self.num_vars = max(self.num_vars, abs(lit))
        self.clauses.append(lits)

    def add_all(self, clauses: Iterable[Iterable[Lit]]) -> None:
        for clause in clauses:
            self.add(clause)

    # -- frequently used gate encodings -------------------------------------
    def add_at_most_one(self, lits: Sequence[Lit]) -> None:
        """Pairwise at-most-one constraint over *lits*."""
        for i, a in enumerate(lits):
            for b in lits[i + 1 :]:
                self.add([-a, -b])

    def add_exactly_one(self, lits: Sequence[Lit]) -> None:
        self.add(list(lits))
        self.add_at_most_one(lits)

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

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    @staticmethod
    def pigeonhole(pigeons: int, holes: int) -> "CNF":
        """The pigeonhole instance family: ``p(i,h) = holes*i + h + 1``.

        Unsatisfiable whenever ``pigeons > holes`` and resolution-hard, so
        the tests and the propagation microbench share it as a
        conflict-heavy workload.
        """
        cnf = CNF()

        def var(i: int, h: int) -> int:
            return holes * i + h + 1

        for i in range(pigeons):
            cnf.add([var(i, h) for h in range(holes)])
        for h in range(holes):
            for i in range(pigeons):
                for j in range(i + 1, pigeons):
                    cnf.add([-var(i, h), -var(j, h)])
        return cnf

    @staticmethod
    def from_dimacs(text: str) -> "CNF":
        cnf = CNF()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith(("c", "p", "%")):
                continue
            lits = [int(tok) for tok in line.split()]
            if lits and lits[-1] == 0:
                lits = lits[:-1]
            if lits:
                cnf.add(lits)
        return cnf
