"""Tests for the SAT substrate: CNF container, Tseitin, CDCL vs brute force."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import parse
from repro.sat import CDCLSolver, CNF, NotPropositional, encode
from repro.sat import cdcl
from repro.sat.cdcl import _luby

from oracles.sat import (
    ScanCDCLSolver,
    add_all,
    add_exactly_one,
    pigeonhole,
    solve_brute,
    value,
)


def cnf_of(*clauses):
    cnf = CNF()
    for clause in clauses:
        cnf.add(clause)
    return cnf


class TestCNF:
    def test_new_var_counts_up(self):
        cnf = CNF()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2
        assert cnf.num_vars == 2

    def test_named_vars_are_stable(self):
        cnf = CNF()
        a = cnf.var("a")
        b = cnf.var("b")
        assert cnf.var("a") == a
        assert a != b

    def test_duplicate_name_rejected(self):
        cnf = CNF()
        cnf.new_var("x")
        with pytest.raises(ValueError):
            cnf.new_var("x")

    def test_add_rejects_zero_literal(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add([1, 0])

    def test_add_grows_num_vars(self):
        cnf = cnf_of([5, -7])
        assert cnf.num_vars == 7

    def test_exactly_one(self):
        cnf = CNF()
        lits = [cnf.new_var() for _ in range(4)]
        add_exactly_one(cnf, lits)
        model = solve_brute(cnf)
        assert model is not None
        assert sum(model[abs(l)] for l in lits) == 1


class TestCDCLBasics:
    def test_empty_cnf_is_sat(self):
        assert CDCLSolver(CNF()).solve()

    def test_unit_propagation(self):
        result = CDCLSolver(cnf_of([1], [-1, 2], [-2, 3])).solve()
        assert result
        assert value(result, 1) and value(result, 2) and value(result, 3)

    def test_trivial_unsat(self):
        assert not CDCLSolver(cnf_of([1], [-1])).solve()

    def test_empty_clause_unsat(self):
        cnf = CNF()
        cnf.clauses.append([])
        # normalise through the solver's add path instead
        solver = CDCLSolver(cnf_of([1]))
        solver.add_clause([])
        assert not solver.solve()

    def test_pigeonhole_3_in_2_unsat(self):
        # 3 pigeons, 2 holes: var p(i,h) = 2*i + h + 1
        cnf = CNF()
        def v(i, h):
            return 2 * i + h + 1
        for i in range(3):
            cnf.add([v(i, 0), v(i, 1)])
        for h in range(2):
            for i in range(3):
                for j in range(i + 1, 3):
                    cnf.add([-v(i, h), -v(j, h)])
        assert not CDCLSolver(cnf).solve()

    def test_model_satisfies_all_clauses(self):
        cnf = cnf_of([1, 2, 3], [-1, -2], [-2, -3], [2, 3])
        result = CDCLSolver(cnf).solve()
        assert result
        for clause in cnf.clauses:
            assert any(value(result, lit) for lit in clause)

    def test_statistics_reported(self):
        result = CDCLSolver(cnf_of([1, 2], [-1, 2], [1, -2], [-1, -2, 3])).solve()
        assert result.propagations >= 0
        assert result.conflicts >= 0

    def test_stats_method_reports_work(self):
        solver = CDCLSolver(cnf_of([1, 2], [-1, 2], [1, -2], [-1, -2, 3]))
        assert solver.solve()
        stats = solver.stats()
        for key in (
            "propagations",
            "conflicts",
            "decisions",
            "restarts",
            "clause_visits",
            "learnt_clauses",
            "clauses",
            "vars",
        ):
            assert key in stats, key
        assert stats["propagations"] > 0
        assert stats["vars"] == 3

    def test_propagation_scheme_not_selectable(self):
        # Watched literals are the only scheme; the scan reference lives in
        # tests/oracles/sat.py and plugs in by subclassing.
        for mode in ("watch", "scan"):
            with pytest.raises(TypeError):
                CDCLSolver(cnf_of([1]), propagation=mode)

    def test_activity_increment_grows_by_one_over_var_decay(self, monkeypatch):
        # Every conflict that learns a clause scales the VSIDS increment by
        # 1/VAR_DECAY; the final root-level conflict learns nothing.
        monkeypatch.setattr(cdcl, "VAR_DECAY", 0.5)
        solver = CDCLSolver(pigeonhole(5, 4))
        assert not solver.solve()
        assert solver.conflicts > 1
        assert solver.var_inc == 2.0 ** (solver.conflicts - 1)



def random_3sat(seed: int, num_vars: int, num_clauses: int) -> CNF:
    """*num_clauses* random 3-literal clauses over distinct variables."""
    rng = random.Random(seed)
    cnf = CNF()
    for _ in range(num_clauses):
        clause = []
        while len(clause) < 3:
            var = rng.randint(1, num_vars)
            lit = var if rng.random() < 0.5 else -var
            if var not in {abs(other) for other in clause}:
                clause.append(lit)
        cnf.add(clause)
    cnf.num_vars = max(cnf.num_vars, num_vars)
    return cnf


def exactly_one_grid(rows: int, cols: int) -> CNF:
    """Exactly one true cell per row and per column: satisfiable but
    propagation heavy, the shape of the bounded-synthesis encodings."""
    cnf = CNF()
    for r in range(rows):
        add_exactly_one(cnf, [r * cols + c + 1 for c in range(cols)])
    for c in range(cols):
        add_exactly_one(cnf, [r * cols + c + 1 for r in range(rows)])
    return cnf


class TestRestartsAndLuby:
    def test_luby_sequence_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_restarts_follow_luby_with_short_interval(self, monkeypatch):
        # An interval of 1 restarts after every 1*luby(i) conflicts, so a
        # conflict-heavy instance must restart and still answer correctly.
        monkeypatch.setattr(cdcl, "RESTART_INTERVAL", 1)
        solver = CDCLSolver(pigeonhole(5, 4))
        result = solver.solve()
        assert not result
        assert solver.stats()["restarts"] >= 1
        assert result.restarts == solver.stats()["restarts"]

    def test_default_interval_rarely_restarts_on_small_instances(self):
        solver = CDCLSolver(cnf_of([1, 2], [-1, 2]))
        assert solver.solve()
        assert solver.stats()["restarts"] == 0


class TestClauseMinimisation:
    def test_self_subsumed_literal_dropped(self):
        # 1 (decision) propagates 2 via (-1 v 2).  In a learnt clause
        # [x, -2, -1] the literal -2 is redundant: its reason's other
        # literal -1 is already in the clause.
        solver = CDCLSolver(cnf_of([-1, 2]))
        solver.add_clause([-3, 1])  # give variable 3 a home
        solver.trail_lim.append(len(solver.trail))
        assert solver._enqueue(1, None)
        assert solver._propagate() is None
        assert solver._value(2) == 1 and solver.reason[2] is not None
        seen = [False] * (solver.num_vars + 1)
        learnt = solver._minimise([-3, -2, -1], seen)
        assert learnt == [-3, -1]
        assert seen == [False] * (solver.num_vars + 1)  # scratch state restored

    def test_decision_literal_never_dropped(self):
        solver = CDCLSolver(cnf_of([-1, 2]))
        solver.trail_lim.append(len(solver.trail))
        assert solver._enqueue(1, None)
        assert solver._propagate() is None
        seen = [False] * (solver.num_vars + 1)
        assert solver._minimise([2, -1], seen) == [2, -1]


class TestPropagationSchemes:
    def test_scan_mode_agrees_on_pigeonhole(self):
        cnf = pigeonhole(4, 3)
        assert not CDCLSolver(cnf).solve()
        assert not ScanCDCLSolver(cnf).solve()

    @pytest.mark.parametrize(
        "make_cnf, satisfiable",
        [
            (lambda: pigeonhole(6, 5), False),
            (lambda: random_3sat(1, 40, 170), False),
            (lambda: exactly_one_grid(7, 7), True),
        ],
        ids=["pigeonhole-6x5", "random3sat-40v-170c", "exactly-one-7x7"],
    )
    def test_watchers_visit_fewer_clauses_per_propagation(
        self, make_cnf, satisfiable
    ):
        cnf = make_cnf()
        watch = CDCLSolver(cnf)
        scan = ScanCDCLSolver(cnf)
        assert bool(watch.solve()) is satisfiable
        assert bool(scan.solve()) is satisfiable
        watch_rate = watch.clause_visits / max(1, watch.propagations)
        scan_rate = scan.clause_visits / max(1, scan.propagations)
        assert watch_rate * 2 <= scan_rate, (watch_rate, scan_rate)

    def test_incremental_solving_in_scan_mode(self):
        solver = ScanCDCLSolver(cnf_of([1, 2]))
        assert solver.solve()
        solver.add_clause([-1])
        result = solver.solve()
        assert result and value(result, 2)
        solver.add_clause([-2])
        assert not solver.solve()


class TestDatabaseReduction:
    """Learnt-clause DB reduction with literal-block-distance scoring."""

    def test_reduction_drops_clauses_and_preserves_verdict(self, monkeypatch):
        monkeypatch.setattr(cdcl, "REDUCE_INTERVAL", 20)
        cnf = pigeonhole(6, 5)
        for solver_class in (CDCLSolver, ScanCDCLSolver):
            solver = solver_class(cnf)
            assert not solver.solve()
            stats = solver.stats()
            assert stats["learnt_dropped"] > 0, solver_class
            assert stats["learnt_kept"] >= 0
            # The live DB is what the stats count; tombstones are excluded.
            live = sum(1 for clause in solver.clauses if clause is not None)
            assert stats["clauses"] == live

    def test_reduction_disabled_keeps_everything(self, monkeypatch):
        # An interval no search reaches disables reduction in effect.
        monkeypatch.setattr(cdcl, "REDUCE_INTERVAL", 10**9)
        solver = CDCLSolver(pigeonhole(6, 5))
        assert not solver.solve()
        assert solver.stats()["learnt_dropped"] == 0

    def test_stats_gain_reduction_counters(self):
        solver = CDCLSolver(cnf_of([1, 2], [-1, 2]))
        assert solver.solve()
        stats = solver.stats()
        assert "learnt_kept" in stats
        assert "learnt_dropped" in stats

    def test_reduction_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(cdcl, "REDUCE_INTERVAL", 10)
        cnf = pigeonhole(6, 5)
        first = CDCLSolver(cnf)
        second = CDCLSolver(cnf)
        assert not first.solve() and not second.solve()
        assert first.stats() == second.stats()

    @pytest.mark.parametrize("seed", range(15))
    def test_aggressive_reduction_agrees_with_brute_force(self, seed, monkeypatch):
        monkeypatch.setattr(cdcl, "REDUCE_INTERVAL", 3)
        rng = random.Random(9000 + seed)
        cnf = random_cnf(rng, num_vars=8, num_clauses=rng.randint(20, 45))
        solver = CDCLSolver(cnf)
        result = solver.solve()
        brute = solve_brute(cnf)
        assert bool(result) == (brute is not None)
        if result:
            for clause in cnf.clauses:
                assert any(value(result, lit) for lit in clause)

    def test_glue_and_binary_clauses_survive(self, monkeypatch):
        monkeypatch.setattr(cdcl, "REDUCE_INTERVAL", 10)
        solver = CDCLSolver(pigeonhole(6, 5))
        assert not solver.solve()
        for index in solver.learnt:
            clause = solver.clauses[index]
            assert clause is not None
            # Everything the reducer may keep indefinitely is glue, short,
            # or simply hasn't been the worse half yet — but nothing
            # tombstoned may linger in the live list.
        for index, lbd in solver.lbd.items():
            assert solver.clauses[index] is not None
            assert lbd >= 1


class TestAssumptions:
    def test_sat_under_assumptions(self):
        cnf = cnf_of([1, 2])
        result = CDCLSolver(cnf).solve([-1])
        assert result
        assert value(result, 2)

    def test_unsat_under_assumptions_reports_core(self):
        cnf = cnf_of([-1, 2], [-2, 3])
        result = CDCLSolver(cnf).solve([1, -3])
        assert not result
        assert result.failed_assumptions
        assert set(result.failed_assumptions) <= {1, -3}

    def test_solver_reusable_after_assumption_unsat(self):
        solver = CDCLSolver(cnf_of([-1, 2]))
        assert not solver.solve(assumptions=[1, -2])
        assert solver.solve(assumptions=[1])
        assert solver.solve()

    def test_incremental_clause_addition(self):
        solver = CDCLSolver(cnf_of([1, 2]))
        assert solver.solve()
        solver.add_clause([-1])
        result = solver.solve()
        assert result and value(result, 2)
        solver.add_clause([-2])
        assert not solver.solve()


class TestTseitin:
    def test_simple_formulas(self):
        for text, expected in [
            ("a && !a", False),
            ("a || !a", True),
            ("(a -> b) && a && !b", False),
            ("(a <-> b) && a", True),
            ("true", True),
            ("false", False),
        ]:
            cnf = CNF()
            cnf.add([encode(parse(text), cnf)])
            assert bool(CDCLSolver(cnf).solve()) == expected, text

    def test_shared_atoms_share_variables(self):
        cnf = CNF()
        lit1 = encode(parse("a"), cnf)
        lit2 = encode(parse("a && a"), cnf)
        cnf.add([lit1])
        cnf.add([-lit2])
        assert not CDCLSolver(cnf).solve()

    def test_temporal_rejected(self):
        cnf = CNF()
        with pytest.raises(NotPropositional):
            encode(parse("X a"), cnf)

    def test_model_matches_semantics(self):
        formula = parse("(a || b) && (!a || c) && (a <-> !b)")
        cnf = CNF()
        cnf.add([encode(formula, cnf)])
        result = CDCLSolver(cnf).solve()
        assert result
        a, b, c = (result.model[cnf.var(n)] for n in "abc")
        assert (a or b) and ((not a) or c) and (a == (not b))


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CNF:
    cnf = CNF()
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        clause = []
        for _ in range(width):
            var = rng.randint(1, num_vars)
            clause.append(var if rng.random() < 0.5 else -var)
        cnf.add(clause)
    cnf.num_vars = max(cnf.num_vars, num_vars)
    return cnf


class TestCDCLAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_instances_agree(self, seed):
        rng = random.Random(seed)
        cnf = random_cnf(rng, num_vars=8, num_clauses=rng.randint(5, 40))
        brute = solve_brute(cnf)
        result = CDCLSolver(cnf).solve()
        assert bool(result) == (brute is not None)
        if result:
            for clause in cnf.clauses:
                assert any(value(result, lit) for lit in clause)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_instances_agree(self, seed):
        rng = random.Random(seed)
        cnf = random_cnf(rng, num_vars=6, num_clauses=rng.randint(1, 30))
        brute = solve_brute(cnf)
        result = CDCLSolver(cnf).solve()
        assert bool(result) == (brute is not None)

    @pytest.mark.parametrize("seed", range(10))
    def test_assumptions_agree_with_unit_clauses(self, seed):
        rng = random.Random(1000 + seed)
        cnf = random_cnf(rng, num_vars=7, num_clauses=20)
        assumptions = [rng.choice([1, -1]) * rng.randint(1, 7) for _ in range(3)]
        with_units = CNF()
        add_all(with_units, cnf.clauses)
        consistent = len({abs(a) for a in assumptions}) == len(assumptions) or True
        for a in assumptions:
            with_units.add([a])
        expected = bool(CDCLSolver(with_units).solve())
        got = bool(CDCLSolver(cnf).solve(assumptions))
        assert got == expected


class TestBruteForce:
    def test_cap_enforced(self):
        cnf = CNF()
        cnf.num_vars = 50
        with pytest.raises(ValueError):
            solve_brute(cnf)

    def test_unsat_detected(self):
        assert solve_brute(cnf_of([1], [-1])) is None
