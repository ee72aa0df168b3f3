"""Differential fuzzing of the CDCL solver against the brute-force oracle.

Hypothesis generates random CNFs (and assumption sets) and cross-checks

* ``CDCLSolver`` — two-watched-literal propagation,
* ``ScanCDCLSolver`` (``tests/oracles/sat.py``) — the full-clause
  re-scan reference,
* ``solve_brute`` (``tests/oracles/sat.py``) — exhaustive enumeration,
  the ground truth.

SAT answers are verified by evaluating the model against every clause;
UNSAT answers must agree on all three sides; failed-assumption cores are
checked for membership (every core literal is an assumption) and
sufficiency (the formula plus the core alone is unsatisfiable by brute
force).  All runs are derandomized so CI is deterministic; the shrink
database (``.hypothesis/``) is gitignored.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import CDCLSolver, CNF

from oracles.sat import ScanCDCLSolver, add_all, solve_brute, value

NUM_VARS = 6

literals = st.integers(min_value=1, max_value=NUM_VARS).flatmap(
    lambda var: st.sampled_from([var, -var])
)
clauses = st.lists(literals, min_size=1, max_size=4)
cnfs = st.lists(clauses, min_size=0, max_size=30)
assumption_sets = st.lists(literals, min_size=1, max_size=4)

DETERMINISTIC = settings(max_examples=120, deadline=None, derandomize=True)

#: Both propagation schemes, by name.
SOLVERS = {"watch": CDCLSolver, "scan": ScanCDCLSolver}


def build(clause_list) -> CNF:
    cnf = CNF()
    for clause in clause_list:
        cnf.add(clause)
    cnf.num_vars = max(cnf.num_vars, NUM_VARS)
    return cnf


def assert_model_satisfies(result, cnf: CNF, context: str) -> None:
    for clause in cnf.clauses:
        assert any(value(result, lit) for lit in clause), (context, clause)


class TestSolveAgainstBrute:
    @given(cnfs)
    @DETERMINISTIC
    def test_watch_mode_agrees_with_brute(self, clause_list):
        cnf = build(clause_list)
        brute = solve_brute(cnf)
        result = CDCLSolver(cnf).solve()
        assert bool(result) == (brute is not None)
        if result:
            assert_model_satisfies(result, cnf, "watch")

    @given(cnfs)
    @DETERMINISTIC
    def test_scan_mode_agrees_with_brute(self, clause_list):
        cnf = build(clause_list)
        brute = solve_brute(cnf)
        result = ScanCDCLSolver(cnf).solve()
        assert bool(result) == (brute is not None)
        if result:
            assert_model_satisfies(result, cnf, "scan")

    @given(cnfs)
    @DETERMINISTIC
    def test_modes_agree_with_each_other(self, clause_list):
        watch = CDCLSolver(build(clause_list)).solve()
        scan = ScanCDCLSolver(build(clause_list)).solve()
        assert bool(watch) == bool(scan)


class TestAssumptionCores:
    @given(cnfs, assumption_sets)
    @DETERMINISTIC
    def test_verdict_matches_unit_clauses(self, clause_list, assumptions):
        cnf = build(clause_list)
        with_units = build(clause_list)
        for lit in assumptions:
            with_units.add([lit])
        expected = solve_brute(with_units) is not None
        for mode, solver_class in SOLVERS.items():
            result = solver_class(cnf).solve(assumptions)
            assert bool(result) == expected, mode

    @given(cnfs, assumption_sets)
    @DETERMINISTIC
    def test_core_membership_and_sufficiency(self, clause_list, assumptions):
        cnf = build(clause_list)
        result = CDCLSolver(cnf).solve(assumptions)
        if result:
            assert_model_satisfies(result, cnf, "assumptions-sat")
            for lit in assumptions:
                assert value(result, lit), lit
            return
        core = result.failed_assumptions
        assert core is not None
        # Membership: the core only ever names given assumptions.
        assert set(core) <= set(assumptions)
        # Sufficiency: the formula plus the core alone is unsatisfiable.
        with_core = build(clause_list)
        for lit in core:
            with_core.add([lit])
        assert solve_brute(with_core) is None, (core, assumptions)

    def test_core_traces_implication_chain(self):
        # 1 -> 2 -> 3; assuming 1 and -3 must fail with exactly {1, -3}:
        # the trace excludes unrelated assumptions like 5.
        cnf = build([[-1, 2], [-2, 3]])
        result = CDCLSolver(cnf).solve(assumptions=[5, 1, -3])
        assert not result
        assert result.failed_assumptions == [1, -3]

    def test_root_falsified_assumption_is_its_own_core(self):
        cnf = build([[-4]])
        result = CDCLSolver(cnf).solve(assumptions=[2, 4])
        assert not result
        assert result.failed_assumptions == [4]


class TestIncrementalSolving:
    """Solver reuse across ``solve()`` calls: clauses added after an
    answer (with watcher/trail repair) must behave exactly as if the
    solver had been built from the combined formula, for both
    propagation schemes, with learnt clauses carried across calls."""

    @given(cnfs, cnfs)
    @DETERMINISTIC
    def test_add_clause_after_answer_agrees_with_brute(self, first, second):
        for mode, solver_class in SOLVERS.items():
            solver = solver_class(build(first))
            result = solver.solve()
            assert bool(result) == (solve_brute(build(first)) is not None), mode
            for clause in second:
                solver.add_clause(clause)
            combined = build(first + second)
            result = solver.solve()
            assert bool(result) == (solve_brute(combined) is not None), mode
            if result:
                assert_model_satisfies(result, combined, ("incremental", mode))

    @given(cnfs, cnfs, cnfs)
    @DETERMINISTIC
    def test_three_epochs_agree_with_brute(self, first, second, third):
        solver = CDCLSolver(build(first))
        accumulated = list(first)
        solver.solve()
        for chunk in (second, third):
            for clause in chunk:
                solver.add_clause(clause)
            accumulated.extend(chunk)
            combined = build(accumulated)
            result = solver.solve()
            assert bool(result) == (solve_brute(combined) is not None)
            if result:
                assert_model_satisfies(result, combined, "epochs")
        incremental = solver.stats()["incremental"]
        assert incremental["solves"] == 3
        assert incremental["clauses_added"] == len(second) + len(third)

    @given(cnfs, assumption_sets)
    @DETERMINISTIC
    def test_assumptions_after_clause_additions(self, clause_list, assumptions):
        solver = CDCLSolver(build([]))
        solver.solve()
        for clause in clause_list:
            solver.add_clause(clause)
        with_units = build(clause_list)
        for lit in assumptions:
            with_units.add([lit])
        expected = solve_brute(with_units) is not None
        result = solver.solve(assumptions)
        assert bool(result) == expected
        if result:
            assert_model_satisfies(result, build(clause_list), "assume-after-add")
            for lit in assumptions:
                assert value(result, lit), lit


class TestActivationLiteralGating:
    """The retractable-clause-group protocol the incremental synthesis
    encoding uses: group ``i``'s clauses are widened with ``-act_i``,
    solved under the assumption ``act_i``, and retired for good by the
    unit clause ``[-act_i]`` — after which only later groups constrain
    the solver.  Cross-checked against brute force on the clause sets
    that are active at each step."""

    ACTS = (NUM_VARS + 1, NUM_VARS + 2)

    def gated(self, chunk, act):
        return [list(clause) + [-act] for clause in chunk]

    @given(cnfs, cnfs, cnfs)
    @DETERMINISTIC
    def test_gated_groups_match_brute(self, permanent, group1, group2):
        act1, act2 = self.ACTS
        cnf = build(permanent + self.gated(group1, act1))
        cnf.num_vars = max(cnf.num_vars, act2)
        solver = CDCLSolver(cnf)
        expected = solve_brute(build(permanent + group1)) is not None
        result = solver.solve([act1])
        assert bool(result) == expected
        if result:
            assert_model_satisfies(result, build(permanent + group1), "epoch-1")
        # Retire group 1, activate group 2: group 1 must stop constraining.
        solver.add_clause([-act1])
        for clause in self.gated(group2, act2):
            solver.add_clause(clause)
        expected = solve_brute(build(permanent + group2)) is not None
        result = solver.solve([act2])
        assert bool(result) == expected
        if result:
            assert_model_satisfies(result, build(permanent + group2), "epoch-2")
        incremental = solver.stats()["incremental"]
        assert incremental["solves"] == 2
        assert incremental["clauses_added"] == len(group2) + 1

    def test_learnt_clauses_survive_growth(self):
        # A pigeonhole-flavoured UNSAT core forces real conflicts; the
        # second solve must start with learnt clauses still in the DB.
        from repro.sat.cnf import CNF as RawCNF

        cnf = RawCNF()
        n = 4
        holes = {
            (p, h): cnf.new_var(f"p{p}h{h}")
            for p in range(n + 1)
            for h in range(n)
        }
        for p in range(n + 1):
            cnf.add([holes[(p, h)] for h in range(n)])
        solver = CDCLSolver(cnf)
        assert solver.solve()  # satisfiable without exclusivity
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    solver.add_clause([-holes[(p1, h)], -holes[(p2, h)]])
        assert not solver.solve()  # pigeonhole is UNSAT
        stats = solver.stats()
        assert stats["conflicts"] > 0
        assert not solver.solve()  # re-answer from the same solver
        assert solver.stats()["incremental"]["learnt_carried"] > 0


class TestSeededCorpus:
    """A fixed random corpus on top of Hypothesis, mirroring the historical
    ``random_cnf`` tests but now exercising both propagation schemes and
    assumption handling on every instance."""

    def corpus(self, seed: int):
        rng = random.Random(seed)
        cnf = CNF()
        for _ in range(rng.randint(5, 45)):
            width = rng.randint(1, 3)
            cnf.add(
                [
                    var if rng.random() < 0.5 else -var
                    for var in (rng.randint(1, 8) for _ in range(width))
                ]
            )
        cnf.num_vars = max(cnf.num_vars, 8)
        assumptions = [
            rng.choice([1, -1]) * rng.randint(1, 8) for _ in range(rng.randint(0, 3))
        ]
        return cnf, assumptions

    @pytest.mark.parametrize("seed", range(40))
    def test_corpus_instance(self, seed):
        cnf, assumptions = self.corpus(seed)
        with_units = CNF()
        add_all(with_units, cnf.clauses)
        for lit in assumptions:
            with_units.add([lit])
        expected = solve_brute(with_units) is not None
        for mode, solver_class in SOLVERS.items():
            result = solver_class(cnf).solve(assumptions)
            assert bool(result) == expected, (seed, mode)
            if result:
                assert_model_satisfies(result, cnf, (seed, mode))
            elif result.failed_assumptions:
                core = result.failed_assumptions
                assert set(core) <= set(assumptions), (seed, mode)
                with_core = CNF()
                add_all(with_core, cnf.clauses)
                for lit in core:
                    with_core.add([lit])
                assert solve_brute(with_core) is None, (seed, mode, core)
