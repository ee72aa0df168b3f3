"""Tests for bit-vectors, bit-blasting and the time-abstraction optimiser."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import CDCLSolver
from repro.smt import (
    BitVecBuilder,
    Sign,
    TimeAbstractionProblem,
    gcd_reduction,
    solve_bitblast,
    solve_reference,
)


def eval_with(builder: BitVecBuilder, assertions=()):
    for lit in assertions:
        builder.require(lit)
    result = CDCLSolver(builder.cnf).solve()
    assert result
    return result.model


class TestBitVec:
    def test_constant_roundtrip(self):
        builder = BitVecBuilder()
        vector = builder.constant(42, 8)
        model = eval_with(builder)
        assert builder.decode(vector, model) == 42

    def test_constant_too_wide_rejected(self):
        builder = BitVecBuilder()
        with pytest.raises(ValueError):
            builder.constant(256, 8)
        with pytest.raises(ValueError):
            builder.constant(-1, 8)

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=25, deadline=None)
    def test_add(self, a, b):
        builder = BitVecBuilder()
        result = builder.add(builder.constant(a, 8), builder.constant(b, 8))
        model = eval_with(builder)
        assert builder.decode(result, model) == a + b

    @given(st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=25, deadline=None)
    def test_multiply(self, a, b):
        builder = BitVecBuilder()
        result = builder.multiply(builder.constant(a, 6), builder.constant(b, 6))
        model = eval_with(builder)
        assert builder.decode(result, model) == a * b

    @given(st.integers(0, 127), st.integers(0, 127))
    @settings(max_examples=25, deadline=None)
    def test_comparisons(self, a, b):
        builder = BitVecBuilder()
        va, vb = builder.constant(a, 7), builder.constant(b, 7)
        lt = builder.less_than(va, vb)
        le = builder.less_equal(va, vb)
        eq = builder.equal(va, vb)
        model = eval_with(builder)

        def truth(lit):
            value = model[abs(lit)]
            return value if lit > 0 else not value

        assert truth(lt) == (a < b)
        assert truth(le) == (a <= b)
        assert truth(eq) == (a == b)

    def test_solve_for_variable(self):
        builder = BitVecBuilder()
        x = builder.variable("x", 8)
        product = builder.multiply(x, builder.constant(6, 4))
        builder.require(builder.equal(product, builder.constant(42, 8)))
        model = eval_with(builder)
        assert builder.decode(x, model) == 7

    def test_sum_all(self):
        builder = BitVecBuilder()
        total = builder.sum_all([builder.constant(v, 5) for v in (3, 7, 11)])
        model = eval_with(builder)
        assert builder.decode(total, model) == 21

    def test_extend_cannot_shrink(self):
        builder = BitVecBuilder()
        with pytest.raises(ValueError):
            builder.extend(builder.constant(3, 4), 2)


class TestGCDReduction:
    def test_paper_example(self):
        # Req-08/28/42: lengths 3, 180, 60 -> GCD 3 -> scaled 1, 60, 20.
        solution = gcd_reduction([3, 180, 60])
        assert solution.divisor == 3
        assert solution.scaled == (1, 60, 20)
        assert solution.cost_error == 0

    def test_coprime(self):
        solution = gcd_reduction([4, 9])
        assert solution.divisor == 1
        assert solution.scaled == (4, 9)

    def test_empty(self):
        assert gcd_reduction([]).cost_next == 0


class TestProblemValidation:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            TimeAbstractionProblem.of([3, 3], 1)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            TimeAbstractionProblem.of([0, 2], 1)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            TimeAbstractionProblem.of([3], -1)

    def test_sign_arity_checked(self):
        with pytest.raises(ValueError):
            TimeAbstractionProblem.of([3, 6], 1, signs=[Sign.EARLY])


class TestReferenceSolver:
    def test_paper_running_example(self):
        # Theta = {3, 180, 60}, Delta_i >= 0, B = 5  =>  d = 60,
        # theta' = (0, 3, 1), Delta = (3, 0, 0)   (Section IV-E).
        problem = TimeAbstractionProblem.of([3, 180, 60], 5)
        solution = solve_reference(problem)
        assert solution.divisor == 60
        assert solution.scaled == (0, 3, 1)
        assert solution.errors == (3, 0, 0)
        assert solution.cost_next == 4
        assert solution.cost_error == 3

    def test_zero_budget_falls_back_to_divisors(self):
        problem = TimeAbstractionProblem.of([3, 180, 60], 0)
        solution = solve_reference(problem)
        assert solution.cost_error == 0
        assert solution.divisor == 3  # the GCD is optimal with no slack
        assert solution.scaled == (1, 60, 20)

    def test_late_sign(self):
        problem = TimeAbstractionProblem.of(
            [5, 10], 5, signs=[Sign.LATE, Sign.LATE]
        )
        solution = solve_reference(problem)
        assert all(error <= 0 for error in solution.errors)

    def test_either_sign_at_least_as_good(self):
        early = solve_reference(TimeAbstractionProblem.of([7, 9], 3))
        either = solve_reference(
            TimeAbstractionProblem.of([7, 9], 3, signs=[Sign.EITHER, Sign.EITHER])
        )
        assert (either.cost_next, either.cost_error) <= (
            early.cost_next,
            early.cost_error,
        )

    def test_single_theta_collapses_to_zero(self):
        problem = TimeAbstractionProblem.of([4], 4)
        solution = solve_reference(problem)
        # d = 5 (or anything > 4) gives theta' = 0 with Delta = 4 <= B.
        assert solution.cost_next == 0

    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True),
        st.integers(0, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_solution_is_wellformed(self, thetas, bound):
        problem = TimeAbstractionProblem.of(thetas, bound)
        solution = solve_reference(problem)
        solution.check(problem)  # raises on violation

    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=3, unique=True),
        st.integers(0, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_never_worse_than_gcd(self, thetas, bound):
        problem = TimeAbstractionProblem.of(thetas, bound)
        solution = solve_reference(problem)
        baseline = gcd_reduction(thetas)
        assert solution.cost_next <= baseline.cost_next


class TestBitblastSolver:
    def test_paper_running_example(self):
        problem = TimeAbstractionProblem.of([3, 180, 60], 5)
        solution = solve_bitblast(problem)
        assert solution.cost_next == 4
        assert solution.cost_error == 3
        solution.check(problem)

    @pytest.mark.parametrize(
        "thetas,bound,signs",
        [
            ([3, 6], 0, None),
            ([4, 7], 2, None),
            ([5, 10, 15], 3, None),
            ([5, 9], 4, [Sign.LATE, Sign.LATE]),
            ([6, 11], 3, [Sign.EITHER, Sign.EITHER]),
            ([13], 2, None),
        ],
    )
    def test_agrees_with_reference(self, thetas, bound, signs):
        problem = TimeAbstractionProblem.of(thetas, bound, signs=signs)
        reference = solve_reference(problem)
        bitblast = solve_bitblast(problem)
        assert (bitblast.cost_next, bitblast.cost_error) == (
            reference.cost_next,
            reference.cost_error,
        )
        bitblast.check(problem)

    def test_bound_exceeding_error_sum_width(self):
        # Regression: thetas=[1] gives a 2-bit error sum, and a budget of 4
        # used to overflow the constant instead of being treated as vacuous.
        problem = TimeAbstractionProblem.of([1], 4)
        reference = solve_reference(problem)
        bitblast = solve_bitblast(problem)
        assert (bitblast.cost_next, bitblast.cost_error) == (
            reference.cost_next,
            reference.cost_error,
        )

    @given(
        st.lists(st.integers(1, 20), min_size=1, max_size=3, unique=True),
        st.integers(0, 6),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_agreement(self, thetas, bound):
        problem = TimeAbstractionProblem.of(thetas, bound)
        reference = solve_reference(problem)
        bitblast = solve_bitblast(problem)
        assert (bitblast.cost_next, bitblast.cost_error) == (
            reference.cost_next,
            reference.cost_error,
        )
