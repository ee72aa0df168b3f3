"""Differential suites for the incremental synthesis engines.

Two references from ``tests/oracles/``:

* ``FreshBoundedSynthesizer`` — the from-scratch bounded-synthesis
  encoding the persistent :class:`IncrementalBoundedSynthesizer` must
  agree with: identical verdicts at every step of any monotone
  bound-growth schedule, extracted ``MealyMachine``s byte-identical (both
  paths canonicalize the SAT model), and every machine independently
  verified against the specification.

* ``OfflineGame`` — the full-exploration + post-hoc-fixpoint safety game
  the on-the-fly attractor must agree with: identical verdicts, losing
  regions and machines, with ``positions_pruned > 0`` evidencing the
  early abort on unrealizable-at-bound games.

The driver-level suite swaps both into ``check_realizability`` by
monkeypatching the names it looks up, under the production game rung
and under ``oracles.bounded.bounded_engines``, which decides with
bounded synthesis in both directions.  The Hypothesis schedules are
derandomized so CI is deterministic.
"""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.automata.buchi import BuchiAutomaton, Label
from repro.logic import parse
from repro.synthesis import (
    IncrementalBoundedSynthesizer,
    check_realizability,
    satisfies_specification,
    solve_automaton,
    solve_safety_game,
)

from oracles import game as oracle_game
from oracles.automata import check_total
from oracles.bounded import FreshBoundedSynthesizer, with_bounded_engines
from oracles.game import OfflineGame
from oracles.ladder import without_obligations

DETERMINISTIC = settings(max_examples=30, deadline=None, derandomize=True)

#: Derandomized Hypothesis seeds its draws with a hash of the test's source,
#: so any edit to a schedule test silently redraws its schedules — and they
#: range up to 9 states, where refuting ``F g && G !g`` takes minutes.
#: These are the hashes the two schedule tests drew their examples from
#: (at most 6 states), pinned so the examples survive edits to the bodies.
BOUND_SCHEDULES_SEED = int(
    "8a7b060e4a54c5354995b4cd06949d02981f63172172b9f0"
    "9ffc051da6fae261f8db64e8e8e72a79025449849cb4a957",
    16,
)
ENVIRONMENT_SCHEDULES_SEED = int(
    "b4c340ff9ecaa79cae3b41661a8bda05e3773676c906e5c4"
    "9660262558e08991789c07e102dae5cf42fab642a64d750f",
    16,
)

#: (text, inputs, outputs) — a mix of realizable, unrealizable-with-dual
#: and unsatisfiable specifications.
SPECS = [
    ("G (r -> X g)", ["r"], ["g"]),
    ("G (r -> F g)", ["r"], ["g"]),
    ("G (g <-> X X i)", ["i"], ["g"]),
    ("G (X g <-> (a || b))", ["a", "b"], ["g"]),
    ("G (r -> X (g || X g)) && G (!r -> X !g)", ["r"], ["g"]),
    ("F g && G !g", [], ["g"]),
]

#: Monotone num_states schedules: cumulative growth steps from 1.
schedules = st.lists(
    st.integers(min_value=0, max_value=2), min_size=1, max_size=4
).map(lambda steps: [1 + sum(steps[: i + 1]) for i in range(len(steps))])

spec_indices = st.integers(min_value=0, max_value=len(SPECS) - 1)


class TestIncrementalVsFresh:
    @seed(BOUND_SCHEDULES_SEED)
    @given(spec_indices, schedules)
    @DETERMINISTIC
    def test_bound_schedules_agree(self, index, schedule):
        text, inputs, outputs = SPECS[index]
        specification = parse(text)
        incremental = IncrementalBoundedSynthesizer.for_system(
            specification, inputs, outputs
        )
        fresh = FreshBoundedSynthesizer.for_system(specification, inputs, outputs)
        for num_states in schedule:
            a = incremental.solve(num_states)
            b = fresh.solve(num_states)
            assert a.realizable == b.realizable, (text, num_states)
            assert a.num_states == b.num_states
            assert a.annotation_bound == b.annotation_bound
            if a.realizable:
                # Byte-identical canonical machines, independently checked.
                assert a.machine.transitions == b.machine.transitions
                assert a.machine.describe() == b.machine.describe()
                check_total(a.machine)
                assert satisfies_specification(a.machine, specification), text
            else:
                assert a.machine is None and b.machine is None

    @seed(ENVIRONMENT_SCHEDULES_SEED)
    @given(spec_indices, schedules)
    @DETERMINISTIC
    def test_environment_schedules_agree(self, index, schedule):
        text, inputs, outputs = SPECS[index]
        specification = parse(text)
        incremental = IncrementalBoundedSynthesizer.for_environment(
            specification, inputs, outputs
        )
        fresh = FreshBoundedSynthesizer.for_environment(
            specification, inputs, outputs
        )
        for num_states in schedule:
            a = incremental.solve(num_states)
            b = fresh.solve(num_states)
            assert a.realizable == b.realizable, (text, num_states)
            if a.realizable:
                assert a.machine.transitions == b.machine.transitions
                assert a.machine.describe() == b.machine.describe()

    def test_growing_annotation_bound_alone(self):
        specification = parse("G (g <-> X X i)")
        incremental = IncrementalBoundedSynthesizer.for_system(
            specification, ["i"], ["g"]
        )
        fresh = FreshBoundedSynthesizer.for_system(specification, ["i"], ["g"])
        for num_states, bound in [(1, 2), (1, 3), (2, 3), (2, 5), (3, 5)]:
            a = incremental.solve(num_states, bound)
            b = fresh.solve(num_states, bound)
            assert a.realizable == b.realizable, (num_states, bound)

    #: The bound ladder: ``(text, inputs, outputs, verdicts at 1..4
    #: states)``.  Five specs become winnable partway up, so the
    #: persistent solver re-solves a grown encoding; the last is refuted
    #: at every bound, where carried learnt clauses pay the most.
    LADDER = [
        ("G (X g <-> (a || b))", ["a", "b"], ["g"], [False, True, True, True]),
        ("G (X g <-> (a && b))", ["a", "b"], ["g"], [False, True, True, True]),
        (
            "G (r -> X (g || X g)) && G (!r -> X !g)",
            ["r"], ["g"], [False, True, True, True],
        ),
        (
            "G (r -> (g || X g || X X g)) && G !(g && X g)",
            ["r"], ["g"], [False, True, True, True],
        ),
        (
            "G (r1 -> F g1) && G (r2 -> F g2) && G !(g1 && g2)",
            ["r1", "r2"], ["g1", "g2"], [False, True, True, True],
        ),
        ("F g && G !g", [], ["g"], [False, False, False, False]),
    ]

    def test_bound_ladder_verdicts_and_conflicts(self):
        """1 -> 4 states on every ladder spec: the golden verdicts,
        byte-identical machines, and at least 2x fewer SAT conflicts in
        aggregate than a from-scratch encoding per bound."""
        conflicts = {"incremental": 0, "fresh": 0}
        for text, inputs, outputs, golden in self.LADDER:
            specification = parse(text)
            incremental = IncrementalBoundedSynthesizer.for_system(
                specification, inputs, outputs
            )
            fresh = FreshBoundedSynthesizer.for_system(
                specification, inputs, outputs
            )
            verdicts = []
            for num_states in range(1, 5):
                a = incremental.solve(num_states)
                b = fresh.solve(num_states)
                assert a.realizable == b.realizable, (text, num_states)
                if a.realizable:
                    assert a.machine.transitions == b.machine.transitions
                    assert a.machine.describe() == b.machine.describe()
                verdicts.append(a.realizable)
                conflicts["incremental"] += a.solver_stats["conflicts"]
                conflicts["fresh"] += b.solver_stats["conflicts"]
            assert verdicts == golden, text
        ratio = conflicts["fresh"] / max(1, conflicts["incremental"])
        assert ratio >= 2, conflicts

    def test_incremental_stats_report_reuse(self):
        specification = parse("F g && G !g")
        incremental = IncrementalBoundedSynthesizer.for_system(
            specification, [], ["g"]
        )
        first = incremental.solve(1)
        second = incremental.solve(2)
        assert first.solver_stats["incremental_solves"] >= 1
        assert second.solver_stats["incremental_solves"] >= 1
        assert second.solver_stats["clauses_added"] > 0
        # The fresh reference reports no reuse by construction.
        fresh = FreshBoundedSynthesizer.for_system(specification, [], ["g"])
        result = fresh.solve(2)
        assert result.solver_stats["incremental_solves"] == 0
        assert result.solver_stats["learnt_carried"] == 0

    def test_shrinking_bounds_rejected(self):
        specification = parse("G (r -> X g)")
        incremental = IncrementalBoundedSynthesizer.for_system(
            specification, ["r"], ["g"]
        )
        incremental.solve(2)
        with pytest.raises(ValueError):
            incremental.solve(1)
        with pytest.raises(ValueError):
            incremental.solve(2, annotation_bound=1)

    def test_encoding_not_selectable(self):
        # The persistent encoding is the only one; the from-scratch
        # reference is tests/oracles/bounded.py's FreshBoundedSynthesizer.
        specification = parse("G g")
        for factory in (
            IncrementalBoundedSynthesizer.for_system,
            IncrementalBoundedSynthesizer.for_environment,
        ):
            for mode in ("incremental", "fresh"):
                with pytest.raises(TypeError):
                    factory(specification, [], ["g"], encoding=mode)
        with pytest.raises(TypeError):
            IncrementalBoundedSynthesizer.for_system(
                specification, [], ["g"], moore_environment=True
            )


class TestOnTheFlyVsOffline:
    GAME_SPECS = [
        ("G (r -> X g)", ["r"], ["g"], [1, 2]),
        ("G (r -> F g)", ["r"], ["g"], [1, 2]),
        ("G (g <-> X X i)", ["i"], ["g"], [1, 2, 3]),
        ("G (r -> F g) && G (c -> !g)", ["r", "c"], ["g"], [1, 2, 3]),
        ("G F g && G (g -> X !g)", [], ["g"], [1, 2]),
        ("F g && G !g", [], ["g"], [1, 2]),
        ("G (r -> X X X X b)", ["r"], ["b"], [1, 2, 3]),
    ]

    @pytest.mark.parametrize("text,inputs,outputs,bounds", GAME_SPECS)
    def test_verdicts_and_machines_agree(self, text, inputs, outputs, bounds):
        for bound in bounds:
            onthefly = solve_safety_game(
                parse(text), inputs, outputs, bound=bound
            )
            offline = oracle_game.solve(
                OfflineGame, parse(text), inputs, outputs, bound=bound
            )
            assert onthefly.realizable == offline.realizable, (text, bound)
            assert offline.stats["positions_pruned"] == 0
            if onthefly.realizable:
                # No abort on realizable games: identical graphs, losing
                # regions and byte-identical extracted machines.
                assert onthefly.stats["positions_pruned"] == 0
                assert (
                    onthefly.positions_explored == offline.positions_explored
                )
                assert (
                    onthefly.stats["losing_positions"]
                    == offline.stats["losing_positions"]
                )
                assert (
                    onthefly.machine.transitions == offline.machine.transitions
                )
                assert onthefly.machine.describe() == offline.machine.describe()
            else:
                assert (
                    onthefly.positions_explored <= offline.positions_explored
                )
                assert (
                    onthefly.stats["letters_enumerated"]
                    <= offline.stats["letters_enumerated"]
                )

    @pytest.mark.parametrize("bound", [1, 3])
    def test_early_abort_prunes_positions(self, bound):
        # Unrealizable at this bound: the run must abandon worklist
        # positions and enumerate strictly fewer letters than offline.
        onthefly = solve_safety_game(
            parse("G (r -> X X X X b)"), ["r"], ["b"], bound=bound
        )
        offline = oracle_game.solve(
            OfflineGame, parse("G (r -> X X X X b)"), ["r"], ["b"], bound=bound
        )
        assert not onthefly.realizable and not offline.realizable
        assert onthefly.stats["positions_pruned"] > 0
        assert onthefly.positions_explored < offline.positions_explored
        assert (
            onthefly.stats["letters_enumerated"]
            < offline.stats["letters_enumerated"]
        )

    def test_case_study_components_equivalent(self):
        """Table I case studies: every explicitly checkable component's
        game agrees between on-the-fly and offline solving."""
        from repro.casestudies import (
            MODE_SWITCHING_REQUIREMENTS,
            application_requirements,
            robot_requirements,
        )
        from repro.logic.ast import atoms, conj
        from repro.synthesis import decompose
        from repro.translate import TranslationOptions, Translator

        translator = Translator(options=TranslationOptions(next_as_x=False))
        studies = [
            ("cara", list(MODE_SWITCHING_REQUIREMENTS)[:10]),
            ("telepromise", next(iter(sorted(application_requirements().items())))[1]),
            ("robot", robot_requirements(2, 3)),
        ]
        compared = 0
        for name, requirements in studies:
            spec = translator.translate(requirements)
            inputs = frozenset(spec.partition.inputs)
            outputs = frozenset(spec.partition.outputs)
            for component in decompose(list(spec.formulas)):
                specification = conj(component.formulas)
                if len(atoms(specification)) > 8:
                    continue
                local_inputs = sorted(component.variables & inputs)
                local_outputs = sorted(component.variables & outputs)
                onthefly = solve_safety_game(
                    specification, local_inputs, local_outputs, bound=2
                )
                offline = oracle_game.solve(
                    OfflineGame, specification, local_inputs, local_outputs,
                    bound=2,
                )
                assert onthefly.realizable == offline.realizable, (name, component)
                assert (
                    onthefly.stats["losing_positions"]
                    == offline.stats["losing_positions"]
                ) or not onthefly.realizable, (name, component)
                if onthefly.realizable:
                    assert (
                        onthefly.machine.transitions
                        == offline.machine.transitions
                    ), (name, component)
                compared += 1
        assert compared >= 3

    def test_solving_not_selectable(self):
        # On-the-fly solving is the only kind; the offline reference is
        # tests/oracles/game.py's OfflineGame.
        automaton = BuchiAutomaton(atoms=frozenset({"g"}))
        state = automaton.new_state()
        automaton.initial = {state}
        automaton.add_transition(state, Label.of(pos=["g"]), state)
        for mode in ("onthefly", "offline"):
            with pytest.raises(TypeError):
                solve_safety_game(parse("G g"), [], ["g"], solving=mode)
            with pytest.raises(TypeError):
                solve_automaton(automaton, [], ["g"], solving=mode)


class TestAutomatonSeam:
    def test_no_accepting_sets_is_plain_safety(self):
        # Regression: an automaton without accepting sets used to crash
        # on accepting_sets[0]; it must solve as a plain safety game.
        automaton = BuchiAutomaton(atoms=frozenset({"g"}))
        state = automaton.new_state()
        automaton.initial = {state}
        automaton.add_transition(state, Label.of(pos=["g"]), state)
        result = solve_automaton(automaton, [], ["g"], bound=1)
        assert result.realizable
        check_total(result.machine)

    def test_no_accepting_sets_offline_agrees(self):
        automaton = BuchiAutomaton(atoms=frozenset({"g"}))
        state = automaton.new_state()
        automaton.initial = {state}
        automaton.add_transition(state, Label.of(pos=["g"]), state)
        onthefly = solve_automaton(automaton, [], ["g"], bound=1)
        offline = oracle_game.solve_automaton(
            OfflineGame, automaton, [], ["g"], bound=1
        )
        assert onthefly.realizable == offline.realizable
        assert onthefly.machine.describe() == offline.machine.describe()


class TestDriverEquivalence:
    CASES = [
        ("G (r -> X g)", ["r"], ["g"]),
        ("G (r -> F g)", ["r"], ["g"]),
        ("G (g <-> X X i)", ["i"], ["g"]),
        ("G (r -> g) && G (r -> !g)", ["r"], ["g"]),
        ("F g && G !g", [], ["g"]),
    ]

    @pytest.mark.parametrize("engine", ["game", "bounded"])
    @pytest.mark.parametrize("text,inputs,outputs", CASES)
    def test_reference_knobs_do_not_change_verdicts(
        self, engine, text, inputs, outputs, monkeypatch
    ):
        from repro.synthesis import realizability
        from repro.synthesis.realizability import clear_caches

        calls = []

        def offline_game(*args, **kwargs):
            calls.append("game")
            return oracle_game.solve(OfflineGame, *args, **kwargs)

        class CountedFresh(FreshBoundedSynthesizer):
            def solve(self, *args, **kwargs):
                calls.append("bounded")
                return super().solve(*args, **kwargs)

        if engine == "bounded":
            monkeypatch.setattr(
                realizability, "RUNGS", with_bounded_engines(realizability.RUNGS)
            )
        # The swap clears the caches: the cache key does not name the rung.
        with without_obligations():
            fast = check_realizability([parse(text)], inputs, outputs)
            with monkeypatch.context() as patch:
                patch.setattr(realizability, "solve_game", offline_game)
                patch.setattr(
                    realizability, "IncrementalBoundedSynthesizer", CountedFresh
                )
                # The cache key cannot tell the runs apart: without a
                # clear, the reference run replays the fast outcome.
                clear_caches()
                reference = check_realizability([parse(text)], inputs, outputs)
        assert fast.verdict is reference.verdict, (engine, text)
        if fast.components[0].method == "satisfiability":
            assert not calls  # the precheck decides before any engine runs
        else:
            assert calls, (engine, text, "no reference engine ran")

    def test_driver_records_new_counters(self):
        from repro.synthesis import synthesis_stats

        with without_obligations():
            check_realizability([parse("G (g <-> X X i)")], ["i"], ["g"])
            assert synthesis_stats()["sat_incremental_solves"] > 0
        with without_obligations():
            check_realizability([parse("G (r -> X X X X b)")], ["r"], ["b"])
            assert synthesis_stats()["game_positions_pruned"] > 0

    def test_driver_takes_no_engine_or_budget_argument(self):
        # The component cache key is the formulas and the local I/O split
        # only, so nothing selects a reference engine or a budget per
        # call: the references are swapped in by monkeypatching (see
        # above), and the budgets are module constants.
        for name, value in [
            ("limits", None),
            ("game_exploration", "concrete"),
            ("game_solving", "offline"),
            ("encoding", "fresh"),
            ("verify_controllers", False),
            ("max_game_positions", 2),
        ]:
            with pytest.raises(TypeError):
                check_realizability([parse("G g")], [], ["g"], **{name: value})
