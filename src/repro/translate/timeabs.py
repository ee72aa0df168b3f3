"""Time counting and abstraction over translated formulas (Section IV-E).

Timing constraints become chains of ``X`` operators during translation.
This module measures the chain lengths across a whole specification,
solves the abstraction problem of Eq. (1)/(2) and rewrites every chain
``X^theta`` into ``X^theta'``.

Given the distinct chain lengths ``Theta = {theta_0, ..., theta_n}``, the
paper picks a common divisor ``d`` and rewrites each chain of ``theta_i``
operators into ``theta'_i`` operators, with an arrival error ``Delta_i``:

    theta_i = theta'_i * d + Delta_i,   0 <= Delta_i < d          (Eq. 1)

subject to the user's budget ``sum Delta_i <= B``.  Every action arrives
early (``Delta_i >= 0``), as in the paper's running example, so a divisor
leaves each chain one choice: ``theta'_i = theta_i div d`` and
``Delta_i = theta_i mod d``.  Minimising ``sum theta'_i`` and then
``sum Delta_i`` (Eq. 2) is therefore one pass over ``d = 1 ... max Theta
+ 1``, where the last divisor already collapses every chain to 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence, Set, Tuple

from ..logic.ast import Formula, Next, next_chain


class AbstractionMethod(enum.Enum):
    """How far the Next chains are shortened."""

    NONE = "none"  # the identity, d = 1
    GCD = "gcd"  # Eq. (2) with B = 0: divide by the GCD
    OPTIMAL = "optimal"  # Eq. (2) with the user's budget B


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
class TimeAbstractionSolution:
    """A satisfying assignment of Eq. (1) with the achieved objectives."""

    divisor: int
    scaled: Tuple[int, ...]  # theta'_i
    errors: Tuple[int, ...]  # Delta_i
    cost_next: int  # sum theta'_i
    cost_error: int  # sum Delta_i

    def check(self, thetas: Sequence[int], bound: int) -> None:
        """Validate the solution against Eq. (1) and the budget *bound*;
        raises on violation."""
        if self.divisor < 1:
            raise AssertionError("divisor must be positive")
        for theta, scaled, error in zip(thetas, self.scaled, self.errors):
            if theta != scaled * self.divisor + error:
                raise AssertionError(f"Eq. (1) violated for theta={theta}")
            if not 0 <= error < self.divisor:
                raise AssertionError(f"0 <= Delta < d violated for theta={theta}")
        if sum(self.errors) > bound:
            raise AssertionError("error budget exceeded")
        if sum(self.scaled) != self.cost_next:
            raise AssertionError("cost_next mismatch")
        if sum(self.errors) != self.cost_error:
            raise AssertionError("cost_error mismatch")


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
    """Solve Eq. (1)/(2) for a set of distinct chain lengths.

    *error_bound* is the paper's user-specified ``B``.  Divisors are tried
    in increasing order and the first one with the smallest
    ``(sum theta', sum Delta)`` within the budget wins; ``d = 1`` (the
    identity) is always within it.  The translator's
    :class:`~repro.translate.translator.TranslationCache` caches solutions
    per theta set: an edit that does not introduce a new chain length
    reuses the solved mapping outright.
    """
    last = 1 if method is AbstractionMethod.NONE else max(thetas, default=0) + 1
    bound = error_bound if method is AbstractionMethod.OPTIMAL else 0
    best = None
    for divisor in range(1, last + 1):
        scaled = tuple(theta // divisor for theta in thetas)
        errors = tuple(theta % divisor for theta in thetas)
        cost = (sum(scaled), sum(errors))
        if cost[1] > bound:
            continue
        if best is None or cost < (best.cost_next, best.cost_error):
            best = TimeAbstractionSolution(divisor, scaled, errors, *cost)
    best.check(thetas, bound)
    return best
