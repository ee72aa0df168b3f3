"""SAT references: full-clause re-scan propagation (the pre-watcher CDCL)
and exhaustive enumeration (the ground truth for tiny instances), plus
the instance generators and model reading the SAT tests share: the
pigeonhole family, exactly-one constraints, and a literal's value in a
model."""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sat.cdcl import CDCLSolver, SatResult, _code
from repro.sat.cnf import CNF, Lit


class ScanCDCLSolver(CDCLSolver):
    """:class:`CDCLSolver` with per-literal occurrence lists, no watchers.

    Shares the search loop, conflict analysis, cores and learnt-database
    reduction with the production solver; only the propagation index and
    the propagation step differ, so ``stats()`` counts the clause visits
    a full re-scan pays.
    """

    def __init__(self, cnf: CNF) -> None:
        # Allocated before the base constructor attaches the input clauses.
        self.occurs: List[List[int]] = [[] for _ in range(2 * (cnf.num_vars + 1))]
        super().__init__(cnf)

    def _grow(self, var: int) -> None:
        self.occurs.extend([] for _ in range(2 * (var - self.num_vars)))
        super()._grow(var)

    def _attach(self, clause: List[Lit]) -> int:
        index = len(self.clauses)
        self.clauses.append(clause)
        for lit in clause:
            self.occurs[_code(lit)].append(index)
        return index

    def _reduce_learnts(self) -> None:
        super()._reduce_learnts()
        # Detach the clauses the reduction tombstoned.
        clauses = self.clauses
        for occur_list in self.occurs:
            if occur_list:
                occur_list[:] = [
                    index for index in occur_list if clauses[index] is not None
                ]

    def _propagate(self) -> Optional[int]:
        """Reference propagation: re-scan every clause containing the
        freshly falsified literal in full.  Kept for differential tests and
        the propagation microbench; never the default."""
        value = self._value
        clauses = self.clauses
        while self.queue_head < len(self.trail):
            lit = self.trail[self.queue_head]
            self.queue_head += 1
            self.propagations += 1
            falsified = -lit
            for index in self.occurs[_code(falsified)]:
                clause = clauses[index]
                self.clause_visits += 1
                unit: Optional[Lit] = None
                satisfied = False
                unassigned = 0
                for other in clause:
                    status = value(other)
                    if status == 1:
                        satisfied = True
                        break
                    if status == 0:
                        unassigned += 1
                        unit = other
                if satisfied:
                    continue
                if unassigned == 0:
                    return index
                if unassigned == 1:
                    self._enqueue(unit, index)
        return None


def solve_brute(cnf: CNF, max_vars: int = 24) -> Optional[Dict[int, bool]]:
    """Return a model as ``{var: bool}`` or ``None`` when unsatisfiable.

    Raises :class:`ValueError` when the instance has more than *max_vars*
    variables, to protect against accidental exponential blow-up.
    """
    if cnf.num_vars > max_vars:
        raise ValueError(
            f"instance has {cnf.num_vars} variables; brute force capped at {max_vars}"
        )
    variables = list(range(1, cnf.num_vars + 1))
    for bits in product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in cnf.clauses
        ):
            return assignment
    return None


def value(result: SatResult, lit: Lit) -> bool:
    """The truth value of *lit* in *result*'s model."""
    if result.model is None:
        raise ValueError("no model available (unsatisfiable result?)")
    assignment = result.model[abs(lit)]
    return assignment if lit > 0 else not assignment


def add_all(cnf: CNF, clauses: Iterable[Iterable[Lit]]) -> None:
    for clause in clauses:
        cnf.add(clause)


def add_at_most_one(cnf: CNF, lits: Sequence[Lit]) -> None:
    """Pairwise at-most-one constraint over *lits*."""
    for i, a in enumerate(lits):
        for b in lits[i + 1 :]:
            cnf.add([-a, -b])


def add_exactly_one(cnf: CNF, lits: Sequence[Lit]) -> None:
    cnf.add(list(lits))
    add_at_most_one(cnf, lits)


def pigeonhole(pigeons: int, holes: int) -> CNF:
    """The pigeonhole instance family: ``p(i,h) = holes*i + h + 1``.

    Unsatisfiable whenever ``pigeons > holes`` and resolution-hard, so
    the tests use it as a conflict-heavy workload.
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
