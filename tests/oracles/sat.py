"""SAT references: full-clause re-scan propagation (the pre-watcher CDCL)
and exhaustive enumeration (the ground truth for tiny instances)."""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional

from repro.sat.cdcl import CDCLSolver, _code
from repro.sat.cnf import CNF, Lit


class ScanCDCLSolver(CDCLSolver):
    """:class:`CDCLSolver` with per-literal occurrence lists, no watchers.

    Shares the search loop, conflict analysis, cores and learnt-database
    reduction with the production solver; only the propagation index and
    the propagation step differ, so ``stats()`` counts the clause visits
    a full re-scan pays.
    """

    def __init__(self, cnf: CNF, **options) -> None:
        # Allocated before the base constructor attaches the input clauses.
        self.occurs: List[List[int]] = [[] for _ in range(2 * (cnf.num_vars + 1))]
        super().__init__(cnf, **options)

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
