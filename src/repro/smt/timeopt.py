"""The time-abstraction optimisation of Section IV-E.

Given the set ``Theta = {theta_0, ..., theta_n}`` of lengths of consecutive
``Next`` chains in a specification, the paper rewrites each chain of
``theta_i`` operators into ``theta'_i`` operators via a common divisor ``d``,
introducing an arrival error ``Delta_i``:

    theta_i = theta'_i * d + Delta_i,   -d < Delta_i < d          (Eq. 1)

subject to a user bound ``sum |Delta_i| <= B`` and a per-action sign
restriction (an action may arrive early, ``Delta_i >= 0``, or late,
``Delta_i <= 0``, but not both).  The objectives, in lexicographic order,
are to minimise ``sum theta'_i`` and then ``sum |Delta_i|``  (Eq. 2).

Two solvers are provided:

* :func:`solve_reference` — exact enumeration of the divisor with a
  knapsack-style assignment of per-action options; serves as the oracle in
  tests and as the fast path in the pipeline.
* :func:`solve_bitblast` — the paper's route: the constraint system is
  bit-blasted to CNF (standing in for Yices 2) and the two objectives are
  minimised by binary search over the CDCL solver.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sat.cdcl import CDCLSolver
from .bitvec import BitVecBuilder


class Sign(enum.Enum):
    """Allowed arrival-error direction for one action (Section IV-E)."""

    EARLY = "early"  # Delta >= 0: the event happens earlier after rewriting
    LATE = "late"  # Delta <= 0: the event happens later
    EITHER = "either"  # the driver may choose a direction


@dataclass(frozen=True)
class TimeAbstractionProblem:
    """Inputs of Eq. (1)/(2): distinct chain lengths, budget, signs."""

    thetas: Tuple[int, ...]
    bound: int
    signs: Tuple[Sign, ...]

    @staticmethod
    def of(
        thetas: Sequence[int],
        bound: int,
        signs: Optional[Sequence[Sign]] = None,
    ) -> "TimeAbstractionProblem":
        thetas = tuple(thetas)
        if len(set(thetas)) != len(thetas):
            raise ValueError("chain lengths must be distinct (paper Eq. 1)")
        if any(theta <= 0 for theta in thetas):
            raise ValueError("chain lengths must be positive")
        if bound < 0:
            raise ValueError("error budget must be non-negative")
        if signs is None:
            signs = (Sign.EARLY,) * len(thetas)
        signs = tuple(signs)
        if len(signs) != len(thetas):
            raise ValueError("one sign restriction per chain length required")
        return TimeAbstractionProblem(thetas, bound, signs)


@dataclass(frozen=True)
class TimeAbstractionSolution:
    """A satisfying assignment of Eq. (1) with the achieved objectives."""

    divisor: int
    scaled: Tuple[int, ...]  # theta'_i
    errors: Tuple[int, ...]  # Delta_i, signed
    cost_next: int  # sum theta'_i
    cost_error: int  # sum |Delta_i|

    def check(self, problem: TimeAbstractionProblem) -> None:
        """Validate the solution against Eq. (1); raises on violation."""
        if self.divisor < 1:
            raise AssertionError("divisor must be positive")
        for theta, scaled, error, sign in zip(
            problem.thetas, self.scaled, self.errors, problem.signs
        ):
            if theta != scaled * self.divisor + error:
                raise AssertionError(f"Eq. (1) violated for theta={theta}")
            if not (-self.divisor < error < self.divisor):
                raise AssertionError(f"|Delta| < d violated for theta={theta}")
            if sign is Sign.EARLY and error < 0:
                raise AssertionError("sign restriction (early) violated")
            if sign is Sign.LATE and error > 0:
                raise AssertionError("sign restriction (late) violated")
        if sum(abs(e) for e in self.errors) > problem.bound:
            raise AssertionError("error budget exceeded")
        if sum(self.scaled) != self.cost_next:
            raise AssertionError("cost_next mismatch")
        if sum(abs(e) for e in self.errors) != self.cost_error:
            raise AssertionError("cost_error mismatch")


def gcd_reduction(thetas: Sequence[int]) -> TimeAbstractionSolution:
    """The conservative zero-error reduction: divide by the GCD."""
    if not thetas:
        return TimeAbstractionSolution(1, (), (), 0, 0)
    divisor = 0
    for theta in thetas:
        divisor = math.gcd(divisor, theta)
    scaled = tuple(theta // divisor for theta in thetas)
    return TimeAbstractionSolution(
        divisor, scaled, (0,) * len(thetas), sum(scaled), 0
    )


# --------------------------------------------------------------------------
# Exact reference solver


def _options_for(theta: int, divisor: int, sign: Sign) -> List[Tuple[int, int]]:
    """Feasible (theta', Delta) pairs for one action under a fixed divisor."""
    remainder = theta % divisor
    options: List[Tuple[int, int]] = []
    if remainder == 0:
        return [(theta // divisor, 0)]
    if sign in (Sign.EARLY, Sign.EITHER):
        options.append((theta // divisor, remainder))
    if sign in (Sign.LATE, Sign.EITHER):
        options.append((theta // divisor + 1, remainder - divisor))
    return options


def solve_reference(problem: TimeAbstractionProblem) -> TimeAbstractionSolution:
    """Exact lexicographic optimum by divisor enumeration + budget DP."""
    best: Optional[TimeAbstractionSolution] = None
    if not problem.thetas:
        return TimeAbstractionSolution(1, (), (), 0, 0)
    for divisor in range(1, max(problem.thetas) + 2):
        candidate = _best_for_divisor(problem, divisor)
        if candidate is None:
            continue
        if best is None or (candidate.cost_next, candidate.cost_error) < (
            best.cost_next,
            best.cost_error,
        ):
            best = candidate
    assert best is not None, "divisor 1 (the identity) is always feasible"
    best.check(problem)
    return best


def _best_for_divisor(
    problem: TimeAbstractionProblem, divisor: int
) -> Optional[TimeAbstractionSolution]:
    """Optimal assignment for a fixed divisor via DP over the error budget."""
    # dp maps used-budget -> (sum theta', choices)
    dp: Dict[int, Tuple[int, Tuple[Tuple[int, int], ...]]] = {0: (0, ())}
    for theta, sign in zip(problem.thetas, problem.signs):
        options = _options_for(theta, divisor, sign)
        next_dp: Dict[int, Tuple[int, Tuple[Tuple[int, int], ...]]] = {}
        for used, (total, choices) in dp.items():
            for scaled, error in options:
                new_used = used + abs(error)
                if new_used > problem.bound:
                    continue
                entry = (total + scaled, choices + ((scaled, error),))
                existing = next_dp.get(new_used)
                if existing is None or entry[0] < existing[0]:
                    next_dp[new_used] = entry
        dp = next_dp
        if not dp:
            return None
    used, (total, choices) = min(
        dp.items(), key=lambda item: (item[1][0], item[0])
    )
    scaled = tuple(choice[0] for choice in choices)
    errors = tuple(choice[1] for choice in choices)
    return TimeAbstractionSolution(divisor, scaled, errors, total, used)


# --------------------------------------------------------------------------
# Bit-blasting solver (the paper's Yices-2 route)


def solve_bitblast(problem: TimeAbstractionProblem) -> TimeAbstractionSolution:
    """Lexicographic optimisation through SAT.

    Eq. (1) is encoded over unsigned bit-vectors; ``sum theta'`` is minimised
    first by binary search, then ``sum |Delta|`` under the fixed optimum.
    """
    if not problem.thetas:
        return TimeAbstractionSolution(1, (), (), 0, 0)

    encoding = _Encoding(problem)
    # The GCD reduction is always feasible (zero error), so its cost is a
    # sound upper bound that keeps the binary search short.
    upper_next = gcd_reduction(problem.thetas).cost_next
    best_next = _minimise(encoding, encoding.sum_scaled, upper_next)
    encoding.fix(encoding.sum_scaled, best_next)
    upper_error = min(problem.bound, sum(problem.thetas))
    best_error = _minimise(encoding, encoding.sum_errors, upper_error)
    encoding.fix(encoding.sum_errors, best_error)

    result = encoding.solver.solve()
    assert result, "fixed optima must remain satisfiable"
    solution = encoding.decode(result.model)
    solution.check(problem)
    return solution


class _Encoding:
    def __init__(self, problem: TimeAbstractionProblem) -> None:
        self.problem = problem
        self.builder = BitVecBuilder()
        width = max(theta for theta in problem.thetas).bit_length() + 1
        self.width = width
        builder = self.builder

        self.divisor = builder.variable("d", width)
        builder.require(
            builder.less_equal(builder.constant(1, width), self.divisor)
        )
        # d never needs to exceed max(theta) + 1 (all chains collapse to 0).
        builder.require(
            builder.less_equal(
                self.divisor,
                builder.constant(max(problem.thetas) + 1, width),
            )
        )

        self.scaled_vars = []
        self.error_vars = []
        self.sign_vars = []  # True = early (Delta >= 0)
        for position, (theta, sign) in enumerate(
            zip(problem.thetas, problem.signs)
        ):
            local_width = theta.bit_length() + 1
            scaled = builder.variable(f"tp{position}", local_width)
            error = builder.variable(f"delta{position}", local_width)  # |Delta|
            self.scaled_vars.append(scaled)
            self.error_vars.append(error)
            theta_const = builder.constant(theta, local_width)
            # theta' <= theta, and |Delta_i| can exceed neither theta_i nor
            # the global budget B — both bounds prune hard.
            builder.require(builder.less_equal(scaled, theta_const))
            error_cap = min(theta, problem.bound)
            builder.require(
                builder.less_equal(
                    error, builder.constant(error_cap, local_width)
                )
            )
            product = builder.multiply(scaled, self.divisor)
            early_eq = builder.equal(builder.add(product, error), theta_const)
            late_eq = builder.equal(product, builder.add(theta_const, error))
            if sign is Sign.EARLY:
                builder.require(early_eq)
                self.sign_vars.append(None)
            elif sign is Sign.LATE:
                builder.require(late_eq)
                self.sign_vars.append(None)
            else:
                selector = builder.cnf.new_var(f"early{position}")
                builder.cnf.add([-selector, early_eq])
                builder.cnf.add([selector, late_eq])
                self.sign_vars.append(selector)
            builder.require(builder.less_than(error, self.divisor))

        self.sum_scaled = builder.sum_all(self.scaled_vars)
        self.sum_errors = builder.sum_all(self.error_vars)
        # A budget beyond what the sum vector can represent is vacuous
        # (every |Delta_i| is already capped above); clamp it so the
        # constant fits instead of raising (e.g. thetas=[1], bound=4).
        budget = min(problem.bound, (1 << self.sum_errors.width) - 1)
        builder.require(
            builder.less_equal(
                self.sum_errors,
                builder.constant(budget, self.sum_errors.width),
            )
        )
        self.solver = CDCLSolver(builder.cnf)
        # Clauses created later (by bound_lit) are forwarded incrementally.
        self._clauses_seen = len(builder.cnf.clauses)

    def bound_lit(self, vector, value: int) -> int:
        builder = self.builder
        lit = builder.less_equal(
            vector, builder.constant(value, max(vector.width, value.bit_length() or 1))
        )
        # The builder appended new clauses to the CNF; forward them to the
        # already-constructed solver.
        for clause in builder.cnf.clauses[self._clauses_seen :]:
            self.solver.add_clause(clause)
        self._clauses_seen = len(builder.cnf.clauses)
        return lit

    def fix(self, vector, value: int) -> None:
        self.solver.add_clause([self.bound_lit(vector, value)])

    def decode(self, model) -> TimeAbstractionSolution:
        builder = self.builder
        divisor = builder.decode(self.divisor, model)
        scaled = tuple(builder.decode(v, model) for v in self.scaled_vars)
        magnitudes = [builder.decode(v, model) for v in self.error_vars]
        errors = []
        for theta, scaled_value, magnitude in zip(
            self.problem.thetas, scaled, magnitudes
        ):
            errors.append(theta - scaled_value * divisor)
        return TimeAbstractionSolution(
            divisor,
            scaled,
            tuple(errors),
            sum(scaled),
            sum(abs(e) for e in errors),
        )


def _minimise(encoding: _Encoding, vector, upper: int) -> int:
    """Smallest value of *vector* consistent with the constraints, found by
    binary search with solver assumptions."""
    low, high = 0, upper
    # Establish feasibility at the upper bound first.
    feasible_at_high = encoding.solver.solve([encoding.bound_lit(vector, high)])
    if not feasible_at_high:
        raise ValueError("constraint system infeasible within the given bound")
    while low < high:
        mid = (low + high) // 2
        if encoding.solver.solve([encoding.bound_lit(vector, mid)]):
            high = mid
        else:
            low = mid + 1
    return high
