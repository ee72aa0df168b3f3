"""Time counting and abstraction over translated formulas (Section IV-E).

Timing constraints become chains of ``X`` operators during translation.
This module measures the chain lengths across a whole specification,
solves the abstraction problem of Eq. (1)/(2) — by GCD, by the exact
reference solver, or by the paper's bit-blasting route — and rewrites
every chain ``X^theta`` into ``X^theta'``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence, Set, Tuple

from ..logic.ast import Formula, Next, next_chain
from ..smt.timeopt import (
    TimeAbstractionProblem,
    TimeAbstractionSolution,
    gcd_reduction,
    solve_bitblast,
    solve_reference,
)


class AbstractionMethod(enum.Enum):
    """Which solver shortens the Next chains."""

    NONE = "none"
    GCD = "gcd"
    OPTIMAL = "optimal"  # exact reference solver
    BITBLAST = "bitblast"  # the paper's SMT-via-SAT route


def chain_lengths(formulas: Sequence[Formula]) -> Tuple[int, ...]:
    """The distinct lengths of maximal ``X`` chains, in increasing order.

    Only chains of length >= 2 participate in the abstraction: a single
    ``X`` (e.g. from the "next" marker) is already minimal and rescaling it
    would change its meaning relative to unscaled requirements.
    """
    lengths: Set[int] = set()
    for formula in formulas:
        _collect(formula, lengths)
    return tuple(sorted(length for length in lengths if length >= 2))


def _collect(formula: Formula, lengths: Set[int]) -> None:
    if isinstance(formula, Next):
        depth = 0
        node: Formula = formula
        while isinstance(node, Next):
            depth += 1
            node = node.operand
        lengths.add(depth)
        _collect(node, lengths)
        return
    for child in formula.children():
        _collect(child, lengths)


def rewrite_chains(formula: Formula, mapping: Dict[int, int]) -> Formula:
    """Replace every maximal chain ``X^n`` with ``X^mapping[n]``."""
    if isinstance(formula, Next):
        depth = 0
        node: Formula = formula
        while isinstance(node, Next):
            depth += 1
            node = node.operand
        new_depth = mapping.get(depth, depth)
        return next_chain(rewrite_chains(node, mapping), new_depth)
    if not formula.children():
        return formula
    rebuilt = [rewrite_chains(child, mapping) for child in formula.children()]
    return type(formula)(*rebuilt)


@dataclass(frozen=True)
class AbstractionResult:
    """The abstraction solution of a specification's chain lengths, for
    reporting."""

    solution: TimeAbstractionSolution
    method: AbstractionMethod
    thetas: Tuple[int, ...] = ()


def solve_abstraction(
    thetas: Tuple[int, ...],
    method: AbstractionMethod = AbstractionMethod.OPTIMAL,
    error_bound: int = 5,
) -> TimeAbstractionSolution:
    """Solve the abstraction problem for a set of chain lengths.

    *error_bound* is the paper's user-specified ``B``; every chain may
    arrive early, as in the running example of Section IV-E.  The
    translator's :class:`~repro.translate.translator.TranslationCache`
    caches solutions per theta-set: an edit that does not introduce a new
    chain length reuses the solved mapping outright.
    """
    if method is AbstractionMethod.NONE or not thetas:
        return TimeAbstractionSolution(
            1, thetas, (0,) * len(thetas), sum(thetas), 0
        )
    if method is AbstractionMethod.GCD:
        return gcd_reduction(thetas)
    problem = TimeAbstractionProblem.of(thetas, error_bound)
    if method is AbstractionMethod.BITBLAST:
        return solve_bitblast(problem)
    return solve_reference(problem)
