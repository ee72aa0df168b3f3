"""Section IV-E's time abstraction: Eq. (1)/(2) solved by one divisor loop.

``solve_abstraction`` is checked on the paper's running example, against
division by the GCD, and against a brute-force transcription of Eq.
(1)/(2) (``tests/oracles/timeabs.py``) over budgets 0 to 10.
"""

from __future__ import annotations

import math
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AbstractionMethod, SpecCC, SpecCCConfig
from repro.translate.timeabs import TimeAbstractionSolution, solve_abstraction

from oracles.timeabs import brute_force

THETAS = st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True)


def optimal(thetas, bound):
    return solve_abstraction(tuple(thetas), AbstractionMethod.OPTIMAL, bound)


def gcd(thetas):
    return solve_abstraction(tuple(thetas), AbstractionMethod.GCD)


class TestGCD:
    def test_paper_example(self):
        # Req-08/28/42: lengths 3, 180, 60 -> GCD 3 -> scaled 1, 60, 20.
        solution = gcd([3, 180, 60])
        assert solution.divisor == 3
        assert solution.scaled == (1, 60, 20)
        assert solution.cost_error == 0

    def test_coprime(self):
        solution = gcd([4, 9])
        assert solution.divisor == 1
        assert solution.scaled == (4, 9)

    def test_empty(self):
        assert gcd([]).cost_next == 0

    @given(THETAS, st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_divides_by_the_gcd_whatever_the_budget(self, thetas, bound):
        divisor = reduce(math.gcd, thetas)
        solution = solve_abstraction(tuple(thetas), AbstractionMethod.GCD, bound)
        assert solution.divisor == divisor
        assert solution.scaled == tuple(theta // divisor for theta in thetas)
        assert solution == optimal(thetas, 0)


class TestOptimal:
    def test_paper_running_example(self):
        # Theta = {3, 180, 60}, Delta_i >= 0, B = 5  =>  d = 60,
        # theta' = (0, 3, 1), Delta = (3, 0, 0)   (Section IV-E).
        solution = optimal([3, 180, 60], 5)
        assert solution.divisor == 60
        assert solution.scaled == (0, 3, 1)
        assert solution.errors == (3, 0, 0)
        assert solution.cost_next == 4
        assert solution.cost_error == 3

    def test_zero_budget_falls_back_to_divisors(self):
        solution = optimal([3, 180, 60], 0)
        assert solution.cost_error == 0
        assert solution.divisor == 3  # the GCD is optimal with no slack
        assert solution.scaled == (1, 60, 20)

    def test_single_theta_collapses_to_zero(self):
        solution = optimal([4], 4)
        # d = 5 (or anything > 4) gives theta' = 0 with Delta = 4 <= B.
        assert solution.cost_next == 0

    def test_no_chains_is_the_identity(self):
        assert optimal([], 5) == TimeAbstractionSolution(1, (), (), 0, 0)

    @given(THETAS, st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_solution_is_wellformed(self, thetas, bound):
        optimal(thetas, bound).check(thetas, bound)  # raises on violation

    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=3, unique=True),
        st.integers(0, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_never_worse_than_gcd(self, thetas, bound):
        assert optimal(thetas, bound).cost_next <= gcd(thetas).cost_next

    @pytest.mark.parametrize(
        "thetas, bound, expected",
        [
            ((3, 6), 0, (3, (1, 2), (0, 0))),
            ((4, 7), 2, (3, (1, 2), (1, 1))),
            ((5, 10, 15), 3, (5, (1, 2, 3), (0, 0, 0))),
            ((13,), 2, (13, (1,), (0,))),
            # A budget above every theta: d = 2 already collapses theta = 1.
            ((1,), 4, (2, (0,), (1,))),
        ],
    )
    def test_pinned_problems(self, thetas, bound, expected):
        solution = optimal(thetas, bound)
        assert (solution.divisor, solution.scaled, solution.errors) == expected
        assert brute_force(thetas, bound) == expected

    @given(
        st.lists(st.integers(1, 12), min_size=0, max_size=3, unique=True),
        st.integers(0, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, thetas, bound):
        solution = optimal(thetas, bound)
        assert (solution.divisor, solution.scaled, solution.errors) == brute_force(
            thetas, bound
        )


class TestCheck:
    @pytest.mark.parametrize(
        "solution, bound",
        [
            (TimeAbstractionSolution(60, (0, 3, 1), (3, 0, 0), 4, 3), 2),
            (TimeAbstractionSolution(60, (1, 3, 1), (-57, 0, 0), 5, -57), 5),
            (TimeAbstractionSolution(2, (1, 90, 30), (0, 0, 0), 121, 0), 5),
            (TimeAbstractionSolution(1, (3, 180, 60), (0, 0, 0), 0, 0), 5),
            (TimeAbstractionSolution(0, (0, 0, 0), (3, 180, 60), 0, 243), 300),
            (TimeAbstractionSolution(3, (0, 60, 20), (3, 0, 0), 80, 3), 5),
            (TimeAbstractionSolution(60, (0, 3, 1), (3, 0, 0), 4, 0), 5),
        ],
        ids=["budget", "late", "eq1", "cost", "divisor", "error_ge_d", "error_cost"],
    )
    def test_rejects_a_violation(self, solution, bound):
        with pytest.raises(AssertionError):
            solution.check((3, 180, 60), bound)


def test_none_is_the_identity():
    solution = solve_abstraction((3, 60, 180), AbstractionMethod.NONE, 5)
    assert solution == TimeAbstractionSolution(1, (3, 60, 180), (0, 0, 0), 243, 0)


@pytest.mark.parametrize("method", list(AbstractionMethod), ids=lambda m: m.value)
def test_negative_budget_is_rejected_when_the_tool_is_built(method):
    # Whatever the method, and before any document reaches the solver.
    with pytest.raises(ValueError, match="non-negative"):
        SpecCC(SpecCCConfig(abstraction=method, error_bound=-1))
    SpecCC(SpecCCConfig(abstraction=method, error_bound=0))


def test_the_cli_offers_three_methods():
    assert [method.value for method in AbstractionMethod] == ["none", "gcd", "optimal"]
