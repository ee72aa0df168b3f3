"""Tests for stage 2: Mealy machines, the engines, obligations, modular
decomposition, localization, controller verification."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.automata.ltlsat import satisfiable
from repro.logic import conj, parse
from repro.synthesis import (
    IncrementalBoundedSynthesizer,
    MealyMachine,
    Verdict,
    all_letters,
    check_realizability,
    decompose,
    localize,
    satisfies_specification,
    solve_safety_game,
    violation_witness,
)
from repro.synthesis import realizability
from repro.synthesis.invariants import (
    ObligationOutcome,
    check_obligations,
    extract_obligations,
)

from oracles import game as oracle_game
from oracles import localization as oracle_localization
from oracles import obligations as oracle_obligations
from oracles.bounded import with_bounded_engines
from oracles.game import ConcreteGame
from oracles.ladder import without_obligations

#: The exact-engine rung under test: the safety game with its bounded
#: dual, or the reference rung deciding with bounded synthesis both ways.
ENGINES = ["game", "bounded"]


def check_with(engine, monkeypatch, *args, **kwargs):
    """:func:`check_realizability` with the *engine* rung of the ladder."""
    from repro.synthesis import realizability

    if engine == "game":
        return check_realizability(*args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(
            realizability, "RUNGS", with_bounded_engines(realizability.RUNGS)
        )
        realizability.clear_caches()  # the cache key does not name the rung
        try:
            return check_realizability(*args, **kwargs)
        finally:
            realizability.clear_caches()


class TestMealyMachine:
    def machine(self):
        machine = MealyMachine(inputs=("a",), outputs=("b",), num_states=2)
        machine.add_transition(0, [], 0, [])
        machine.add_transition(0, ["a"], 1, ["b"])
        machine.add_transition(1, [], 0, [])
        machine.add_transition(1, ["a"], 1, ["b"])
        return machine

    def test_run(self):
        outputs = self.machine().run([["a"], [], ["a"]])
        assert outputs == [frozenset({"b"}), frozenset(), frozenset({"b"})]

    def test_step_ignores_non_input_props(self):
        state, output = self.machine().step(0, ["a", "other"])
        assert state == 1 and output == frozenset({"b"})

    def test_check_total(self):
        machine = MealyMachine(inputs=("a",), outputs=(), num_states=1)
        with pytest.raises(ValueError):
            machine.check_total()

    def test_all_letters(self):
        letters = all_letters(["x", "y"])
        assert len(letters) == 4
        assert frozenset() in letters and frozenset({"x", "y"}) in letters

    def test_to_dot_contains_transitions(self):
        dot = self.machine().to_dot()
        assert "digraph" in dot and "s0 -> s1" in dot


class TestEnginesAgree:
    CASES = [
        ("G (r -> X g)", ["r"], ["g"], True),
        ("G (r -> F g)", ["r"], ["g"], True),
        ("G (g <-> X X i)", ["i"], ["g"], False),  # clairvoyance (footnote 1)
        ("G (r -> g) && G (r -> !g)", ["r"], ["g"], False),
        ("G (r -> g) && G (!r -> !g)", ["r"], ["g"], True),
        ("G F g && G (g -> X !g)", [], ["g"], True),
        ("F g && G !g", [], ["g"], False),  # unsatisfiable
    ]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("text,inputs,outputs,realizable", CASES)
    def test_verdicts(self, engine, text, inputs, outputs, realizable, monkeypatch):
        result = check_with(engine, monkeypatch, [parse(text)], inputs, outputs)
        expected = Verdict.REALIZABLE if realizable else Verdict.UNREALIZABLE
        assert result.verdict is expected

    @pytest.mark.parametrize("engine", ENGINES)
    def test_controller_is_verified(self, engine, monkeypatch):
        # Disable the obligation certificate so the exact engine runs and
        # produces an explicit controller.
        with without_obligations():
            result = check_with(
                engine, monkeypatch, [parse("G (r -> X g)")], ["r"], ["g"]
            )
        assert result.components[0].method == engine
        (machine,) = result.controllers
        assert satisfies_specification(machine, parse("G (r -> X g)"))

    def test_unverified_controller_is_rejected(self, monkeypatch):
        """A controller the independent model checker refutes is an engine
        bug, never a REALIZABLE verdict."""
        from repro.synthesis import SafetyGameResult, realizability

        machine = MealyMachine(inputs=("r",), outputs=("g",), num_states=1)
        machine.add_transition(0, [], 0, [])
        machine.add_transition(0, ["r"], 0, [])  # never grants
        monkeypatch.setattr(
            realizability,
            "solve_game",
            lambda *args, **kwargs: SafetyGameResult(True, machine, 1, 1),
        )
        # The swap clears the caches: a cached outcome would skip the engine.
        with without_obligations(), pytest.raises(
            AssertionError, match="independent verification"
        ):
            check_realizability([parse("G (r -> X g)")], ["r"], ["g"])

    def test_empty_specification_realizable(self):
        assert check_realizability([], ["i"], ["o"]).verdict is Verdict.REALIZABLE


class TestVerifier:
    def test_violation_found(self):
        machine = MealyMachine(inputs=("r",), outputs=("g",), num_states=1)
        machine.add_transition(0, [], 0, [])
        machine.add_transition(0, ["r"], 0, [])  # never grants
        word = violation_witness(machine, parse("G (r -> F g)"))
        assert word is not None
        assert not satisfies_specification(machine, parse("G (r -> F g)"))

    def test_correct_controller_passes(self):
        machine = MealyMachine(inputs=("r",), outputs=("g",), num_states=1)
        machine.add_transition(0, [], 0, ["g"])
        machine.add_transition(0, ["r"], 0, ["g"])
        assert satisfies_specification(machine, parse("G (r -> F g)"))


class TestSafetyGameEquivalence:
    """Golden equivalence: the partial-letter exploration must produce the
    exact results of the concrete ``2^|I| * 2^|O|`` enumeration it
    replaced — same verdicts, same explored positions, byte-identical
    winning strategies."""

    SPECS = [
        ("G (r -> X g)", ["r"], ["g"]),
        ("G (r -> g)", ["r"], ["g"]),
        ("G (r -> F g)", ["r"], ["g"]),
        ("G (g <-> X X i)", ["i"], ["g"]),
        ("G (r -> F g) && G (c -> !g)", ["r", "c"], ["g"]),
        ("G F g && G (g -> X !g)", [], ["g"]),
        ("F g && G !g", [], ["g"]),
        # Wide interfaces: the extra propositions are don't-cares.
        ("G (r -> X g)", ["r"], ["g", "o1", "o2", "o3"]),
        ("G (r -> X X g)", ["r", "i9"], ["g", "o1"]),
    ]

    @pytest.mark.parametrize("bound", [1, 2])
    @pytest.mark.parametrize("text,inputs,outputs", SPECS)
    def test_partial_matches_concrete(self, text, inputs, outputs, bound):
        partial = solve_safety_game(parse(text), inputs, outputs, bound=bound)
        concrete = oracle_game.solve(
            ConcreteGame, parse(text), inputs, outputs, bound=bound
        )
        assert partial.realizable == concrete.realizable
        assert partial.positions_explored == concrete.positions_explored
        if partial.realizable:
            assert partial.machine.transitions == concrete.machine.transitions
            assert partial.machine.num_states == concrete.machine.num_states
            assert partial.machine.describe() == concrete.machine.describe()
            partial.machine.check_total()

    @pytest.mark.parametrize("extra", [2, 4, 8])
    def test_partial_enumeration_ignores_dont_care_outputs(self, extra):
        outputs = ["g"] + [f"o{k}" for k in range(extra)]
        base = solve_safety_game(parse("G (r -> X g)"), ["r"], ["g"], bound=2)
        wide = solve_safety_game(parse("G (r -> X g)"), ["r"], outputs, bound=2)
        assert wide.stats["letters_enumerated"] == base.stats["letters_enumerated"]
        concrete = oracle_game.solve(
            ConcreteGame, parse("G (r -> X g)"), ["r"], outputs, bound=2
        )
        assert concrete.stats["letters_enumerated"] == 2 ** extra * base.stats[
            "letters_enumerated"
        ]
        assert wide.machine.transitions == concrete.machine.transitions

    def test_case_study_components_equivalent(self):
        """All three case studies: every explicitly checkable component's
        safety game agrees between partial and concrete exploration."""
        from repro.casestudies import (
            MODE_SWITCHING_REQUIREMENTS,
            application_requirements,
            robot_requirements,
        )
        from repro.logic.ast import atoms, conj
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
                partial = solve_safety_game(
                    specification, local_inputs, local_outputs, bound=2
                )
                concrete = oracle_game.solve(
                    ConcreteGame,
                    specification,
                    local_inputs,
                    local_outputs,
                    bound=2,
                )
                assert partial.realizable == concrete.realizable, (name, component)
                assert (
                    partial.positions_explored == concrete.positions_explored
                ), (name, component)
                if partial.realizable:
                    assert (
                        partial.machine.transitions == concrete.machine.transitions
                    ), (name, component)
                compared += 1
        assert compared >= 3  # every study contributed at least one component

    def test_realizability_verdicts_equivalent(self, monkeypatch):
        """check_realizability on the concrete-letter game is the
        pre-optimisation engine; verdicts must not change."""
        from repro.synthesis import realizability
        from repro.synthesis.realizability import clear_caches

        calls = []

        def concrete_game(*args, **kwargs):
            calls.append(args)
            return oracle_game.solve(ConcreteGame, *args, **kwargs)

        for text, inputs, outputs, _ in TestEnginesAgree.CASES:
            formulas = [parse(text)]
            with without_obligations():
                partial = check_realizability(formulas, inputs, outputs)
                with monkeypatch.context() as patch:
                    patch.setattr(realizability, "solve_game", concrete_game)
                    # The cache key cannot tell the runs apart: without a
                    # clear, the reference run replays the partial outcome.
                    clear_caches()
                    concrete = check_realizability(formulas, inputs, outputs)
            assert partial.verdict is concrete.verdict, text
        assert calls, "the concrete-letter game never ran"

    def test_exploration_not_selectable(self):
        # Partial letters are the only exploration; the concrete-letter
        # reference is tests/oracles/game.py's ConcreteGame.
        for mode in ("partial", "concrete"):
            with pytest.raises(TypeError):
                solve_safety_game(parse("G g"), [], ["g"], exploration=mode)


class TestSynthesisStats:
    def test_game_work_recorded(self):
        from repro.synthesis import synthesis_stats

        with without_obligations():
            check_realizability([parse("G (r -> X g)")], ["r"], ["g"])
            stats = synthesis_stats()
        assert stats["game_solves"] >= 1
        assert stats["game_positions"] > 0
        assert stats["game_letters"] > 0

    def test_sat_work_recorded(self):
        from repro.synthesis import synthesis_stats
        from repro.synthesis.realizability import clear_caches

        # The game cannot win the clairvoyant spec, so its dual runs.
        with without_obligations():
            check_realizability([parse("G (g <-> X X i)")], ["i"], ["g"])
            stats = synthesis_stats()
            clear_caches()
            assert synthesis_stats()["sat_solves"] == 0
        assert stats["sat_solves"] >= 1
        assert stats["sat_propagations"] > 0

    def test_bounded_result_carries_solver_stats(self):
        result = IncrementalBoundedSynthesizer.for_system(
            parse("G (r -> X g)"), ["r"], ["g"]
        ).solve(num_states=2)
        assert result.solver_stats["propagations"] > 0
        assert "clause_visits" in result.solver_stats


class TestSafetyGameEngine:
    def test_bound_too_small_is_not_definitive(self):
        # G (r -> F g) with the response delayed needs a larger bound; at
        # bound 1 a single-state response still works, so pick a harder one:
        outcome = solve_safety_game(
            parse("G (r -> X X g)"), ["r"], ["g"], bound=1
        )
        # Whatever the verdict, a True answer must come with a machine.
        if outcome.realizable:
            assert outcome.machine is not None

    def test_machine_extraction(self):
        outcome = solve_safety_game(parse("G (r -> g)"), ["r"], ["g"], bound=2)
        assert outcome.realizable
        outcome.machine.check_total()
        assert satisfies_specification(outcome.machine, parse("G (r -> g)"))

    def test_position_cap(self):
        from repro.synthesis import StateSpaceLimit

        with pytest.raises(StateSpaceLimit):
            solve_safety_game(
                parse("G (a -> X X X X b)"), ["a"], ["b"], bound=3, max_positions=2
            )

    def test_position_cap_in_concrete_mode(self):
        from repro.synthesis import StateSpaceLimit

        with pytest.raises(StateSpaceLimit):
            oracle_game.solve(
                ConcreteGame, parse("G (a -> X X X X b)"), ["a"], ["b"],
                bound=3, max_positions=2,
            )

    def test_position_cap_degrades_to_unknown_verdict(self, monkeypatch):
        # The realizability driver must swallow StateSpaceLimit and report
        # UNKNOWN instead of crashing when the cap rules the game out.
        from repro.synthesis import realizability

        monkeypatch.setattr(realizability, "MAX_GAME_POSITIONS", 2)
        with without_obligations():
            result = check_realizability(
                [parse("G (a -> X X X X b)")], ["a"], ["b"]
            )
        assert result.verdict is Verdict.UNKNOWN


class TestDualSynthesis:
    def test_environment_wins_on_clairvoyance(self):
        result = IncrementalBoundedSynthesizer.for_environment(
            parse("G (g <-> X X i)"), ["i"], ["g"]
        ).solve(num_states=2)
        assert result.realizable
        assert result.machine is not None

    def test_environment_loses_on_realizable_spec(self):
        result = IncrementalBoundedSynthesizer.for_environment(
            parse("G (r -> g)"), ["r"], ["g"]
        ).solve(num_states=2)
        assert not result.realizable

    def test_system_bounded_synthesis_returns_machine(self):
        result = IncrementalBoundedSynthesizer.for_system(
            parse("G (r -> X g)"), ["r"], ["g"]
        ).solve(num_states=2)
        assert result.realizable
        assert satisfies_specification(result.machine, parse("G (r -> X g)"))


class TestModularDecomposition:
    def test_disjoint_formulas_split(self):
        components = decompose([parse("G (a -> b)"), parse("G (c -> d)")])
        assert len(components) == 2

    def test_shared_variable_merges(self):
        components = decompose(
            [parse("G (a -> b)"), parse("G (b -> c)"), parse("G (d -> e)")]
        )
        assert len(components) == 2
        sizes = sorted(len(c.formulas) for c in components)
        assert sizes == [1, 2]

    def test_indices_preserved(self):
        components = decompose([parse("G (a -> b)"), parse("G (c -> d)")])
        assert sorted(i for c in components for i in c.indices) == [0, 1]

    def test_unrealizable_component_dominates(self):
        result = check_realizability(
            [parse("G (a -> b)"), parse("G (c -> d) && G (c -> !d)")],
            ["a", "c"],
            ["b", "d"],
        )
        assert result.verdict is Verdict.UNREALIZABLE
        assert result.failing_indices() == (1,)


INPUT_NAMES = ("a", "b", "c", "d")
OUTPUT_NAMES = ("o", "p", "q", "r")


@st.composite
def fragment_specs(draw):
    """``(formulas, inputs, outputs)`` inside the certificate's fragment:
    ``G (c -> r)``, ``X`` delays, ``F`` goals, ``W`` hold-until-release,
    delayed conditions ``G (X c -> r)`` and ``G (X X c -> r)``,
    output-only self-conditions and initial-step constraints.  Conditions
    share input atoms, so some clashing cores can be raised together and
    some cannot."""
    inputs = INPUT_NAMES[: draw(st.integers(1, 4))]
    outputs = OUTPUT_NAMES[: draw(st.integers(1, 4))]

    def literal(names):
        name = draw(st.sampled_from(names))
        return name if draw(st.booleans()) else f"!{name}"

    def combination(names):
        first = literal(names)
        if draw(st.booleans()):
            return first
        return f"({first} {draw(st.sampled_from(['&&', '||']))} {literal(names)})"

    def formula():
        kind = draw(st.integers(0, 7))
        condition, response = combination(inputs), combination(outputs)
        if kind == 0:
            return f"G ({condition} -> {response})"
        if kind == 1:
            return f"G ({condition} -> {'X ' * draw(st.integers(1, 2))}{response})"
        if kind == 2:
            return f"G ({condition} -> F {response})"
        if kind == 3:
            return f"F {response}"
        if kind == 4:
            release = draw(st.sampled_from(inputs))
            return f"G ({condition} -> (!{release} -> ({response} W {release})))"
        if kind == 5:
            return f"G ({'X ' * draw(st.integers(1, 2))}{condition} -> {response})"
        if kind == 6:
            return f"G ({literal(outputs)} -> {response})"
        return response  # an initial-step constraint

    texts = [formula() for _ in range(draw(st.integers(1, 3)))]
    return texts, list(inputs), list(outputs)


@st.composite
def clash_specs(draw):
    """``(formulas, inputs, outputs)`` for the certificate's propagation
    and its fallbacks: 2–8 formulas over at most 4 outputs.  Responses mix
    literals, 3-literal cubes, self-contradictory cubes, ``true``/``false``
    and disjunctions.  ``literal -> literal`` self-conditions share the
    first two outputs, so derived literals, clashes through
    self-conditions and satisfiable 2-SAT residues occur; an
    unsatisfiable residue is rare enough to pin as an example."""
    inputs = INPUT_NAMES[: draw(st.integers(1, 2))]
    outputs = OUTPUT_NAMES[: draw(st.integers(1, 4))]

    def literal(names):
        name = draw(st.sampled_from(names))
        return name if draw(st.booleans()) else f"!{name}"

    def response():
        kind = draw(st.integers(0, 11))
        if kind <= 4:
            return literal(outputs)
        if kind <= 8:
            return f"({literal(outputs)} && {literal(outputs)} && {literal(outputs)})"
        if kind == 9:
            name = draw(st.sampled_from(outputs))
            return f"({name} && !{name})"
        if kind == 10:
            return draw(st.sampled_from(["true", "false"]))
        return f"({literal(outputs)} || {literal(outputs)})"

    def formula():
        kind = draw(st.integers(0, 7))
        if kind <= 3:  # on the first two outputs, so residues can clash
            return f"G ({literal(outputs[:2])} -> {literal(outputs[:2])})"
        if kind == 4:
            return f"G ({literal(inputs)} -> {response()})"
        if kind == 5:
            return f"G ({literal(inputs)} -> X {response()})"
        if kind == 6:
            return f"G ({literal(inputs)} -> F {response()})"
        return f"F {response()}"

    texts = [formula() for _ in range(draw(st.integers(2, 8)))]
    return texts, list(inputs), list(outputs)


class TestObligations:
    def test_extraction_of_invariant(self):
        obligations = extract_obligations(
            parse("G (a -> b)"), frozenset({"b"})
        )
        assert len(obligations) == 1
        assert obligations[0].response == parse("b")

    def test_extraction_of_eventually(self):
        obligations = extract_obligations(
            parse("G (a -> F b)"), frozenset({"b"})
        )
        assert obligations is not None

    def test_anti_causal_marked_always_active(self):
        obligations = extract_obligations(
            parse("G (X X X !bp -> trig)"), frozenset({"trig"})
        )
        assert obligations[0].always_active

    def test_delayed_response_not_always_active(self):
        obligations = extract_obligations(
            parse("G (a -> X b)"), frozenset({"b"})
        )
        assert not obligations[0].always_active

    def test_response_over_inputs_rejected(self):
        assert extract_obligations(parse("G (a -> b)"), frozenset()) is None

    def test_until_fragment(self):
        formula = parse("G (e -> (!p -> (e2 W p)))")
        obligations = extract_obligations(formula, frozenset({"e2"}))
        assert obligations is not None
        assert obligations[0].response == parse("e2")

    def test_joint_conflict_detected(self):
        result = check_obligations(
            [parse("G (a -> o)"), parse("G (b -> !o)")], ["a", "b"], ["o"]
        )
        assert result.outcome is ObligationOutcome.UNREALIZABLE
        assert result.conflict == (0, 1)

    def test_conflict_names_the_clashing_goal_and_invariant(self):
        # Obligations: F o (0), F p (1), G (a -> !p) (2).  Goal 1 clashes
        # with invariant 2; goal 0 is not involved.
        result = check_obligations(
            [parse("F o"), parse("F p"), parse("G (a -> !p)")], ["a"], ["o", "p"]
        )
        assert result.outcome is ObligationOutcome.INCONCLUSIVE
        assert result.conflict == (1, 2)

    def test_conflict_is_a_core(self):
        result = check_obligations(
            [parse("G (a -> o)"), parse("G (b -> !o)"), parse("G (c -> q)")],
            ["a", "b", "c"],
            ["o", "q"],
        )
        assert result.outcome is ObligationOutcome.UNREALIZABLE
        assert result.conflict == (0, 1)

    def test_one_solve_per_goal(self):
        spec = (
            [parse("G (a -> o)"), parse("G (b -> F p)"), parse("F !q")],
            ["a", "b"],
            ["o", "p", "q"],
        )
        # The single-solve reference solves the invariants, then each of
        # two goals; propagation decides the same rounds with no solver.
        reference = oracle_obligations.single_solve(*spec)
        assert reference.outcome is ObligationOutcome.REALIZABLE
        assert reference.solves == 3
        result = check_obligations(*spec)
        assert result.outcome is ObligationOutcome.REALIZABLE
        assert result.solves == 0

    @given(st.one_of(fragment_specs(), clash_specs()))
    # A conflict inside one placement, and an unsatisfiable 2-SAT residue:
    # only the solver's search gives these cores.
    @example((["G (a -> o && !o)"], ["a"], ["o"]))
    @example((["G (p -> q)", "G (p -> !q)", "G (!p -> q)", "G (!p -> !q)"], [], ["p", "q"]))
    # The core holds the earliest placement that set a clashing literal.
    @example((["G (a -> o)", "G (b -> p)", "G (c -> !o && !p)"], ["a", "b", "c"], ["o", "p"]))
    # The response and the self-condition both set !r at one placement,
    # and the solver's core goes through the self-condition.
    @example((["F r", "G (!q -> !r)", "G (c -> !q && o && !r)"], ["c"], ["o", "q", "r"]))
    # The residue forces q, and the clauses the solver learns deciding it
    # set !o before G (o -> !o) does: the goal's core is not (3, 4).
    @example((["G (q -> !o)", "G (p -> q)", "G (!q -> p)", "G (o -> !o)", "F o"], [], ["o", "p", "q"]))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_matches_the_single_solve(self, spec):
        texts, inputs, outputs = spec
        formulas = [parse(text) for text in texts]
        result = check_obligations(formulas, inputs, outputs)
        reference = oracle_obligations.single_solve(formulas, inputs, outputs)
        assert (result.outcome, result.obligations, result.conflict) == (
            reference.outcome, reference.obligations, reference.conflict
        )

    def test_compatible_responses_realizable(self):
        result = check_obligations(
            [parse("G (a -> o1)"), parse("G (b -> !o1 || o2)")],
            ["a", "b"],
            ["o1", "o2"],
        )
        assert result.outcome is ObligationOutcome.REALIZABLE

    @pytest.mark.parametrize(
        "texts, inputs, outputs",
        [
            (["G (a -> o)"], ["a"], ["o"]),
            (["G (a -> F o)"], ["a"], ["o"]),
            (["G (a -> o1 && o2)", "G (b -> o2)"], ["a", "b"], ["o1", "o2"]),
        ],
    )
    def test_hand_written_specs_stay_realizable(self, texts, inputs, outputs):
        # Pinned outright, not only matched against the reference: both
        # share extract_obligations, so a regression there could turn
        # these INCONCLUSIVE in both at once.
        formulas = [parse(text) for text in texts]
        cert = check_obligations(formulas, inputs, outputs)
        assert cert.outcome is ObligationOutcome.REALIZABLE
        with without_obligations():
            exact = check_realizability(formulas, inputs, outputs)
        assert exact.verdict is Verdict.REALIZABLE

    #: The environment can raise each core at once, so the certificate
    #: claims them: a delayed response, an anti-causal condition and a
    #: delayed condition against a same-step one.
    FORCED = [
        (["G (a -> X o)", "G (b -> !o)"], ["a", "b"], ["o"]),
        (["G (X X a -> o)", "G (b -> !o)"], ["a", "b"], ["o"]),
        (["G (a -> o)", "G (X a -> !o)"], ["a"], ["o"]),
    ]

    #: Cores the certificate must not claim.  Each clashes in the
    #: invariants' solve, and each is claimed once the rule is loosened.
    UNFORCED = [
        # Conditions that never hold together: realizable with o := a.
        (["G (a -> o)", "G (!a -> !o)"], ["a"], ["o"], True),
        # An initial-step constraint is extracted like an invariant.
        (["o", "G (a -> X !o)"], ["a"], ["o"], True),
        # The Req-49 shape: nested and W-derived, realizable with o := !b.
        (["G (a -> (!b -> (o W b)))", "G (b -> !o)"], ["a", "b"], ["o"], True),
        # Goal cores: unrealizable here, but not by the invariants' solve,
        # and realizable once the clash is delayed past the first step.
        (["F o", "G (a -> !o)"], ["a"], ["o"], False),
        (["F o", "G (a -> X !o)"], ["a"], ["o"], True),
        # b is not an input, so nothing says the environment sets it.
        (["G (a -> o)", "G (b -> !o)"], ["a"], ["o"], None),
    ]

    @pytest.mark.parametrize("texts, inputs, outputs", FORCED)
    def test_forced_core_is_unrealizable(self, texts, inputs, outputs):
        formulas = [parse(text) for text in texts]
        cert = check_obligations(formulas, inputs, outputs)
        assert cert.outcome is ObligationOutcome.UNREALIZABLE
        assert cert.conflict == (0, 1)
        result = check_realizability(formulas, inputs, outputs)
        assert result.verdict is Verdict.UNREALIZABLE
        assert [c.method for c in result.components] == ["obligations"]
        with without_obligations():
            exact = check_realizability(formulas, inputs, outputs)
        assert exact.verdict is Verdict.UNREALIZABLE

    @pytest.mark.parametrize("texts, inputs, outputs, realizable", UNFORCED)
    def test_unforced_core_stays_inconclusive(
        self, texts, inputs, outputs, realizable
    ):
        formulas = [parse(text) for text in texts]
        cert = check_obligations(formulas, inputs, outputs)
        assert cert.outcome is ObligationOutcome.INCONCLUSIVE
        assert cert.conflict == (0, 1)
        if realizable is not None:
            with without_obligations():
                exact = check_realizability(formulas, inputs, outputs)
            expected = Verdict.REALIZABLE if realizable else Verdict.UNREALIZABLE
            assert exact.verdict is expected

    @given(fragment_specs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_cross_validates_with_exact_engine(self, spec):
        # The certificate gates the satisfiability rung, so nothing else
        # double-checks it: every REALIZABLE must be backed by the CEGIS
        # reference, and every UNREALIZABLE by an INCONCLUSIVE reference;
        # both by a satisfying word and, on small alphabets, the exact
        # engines.
        texts, inputs, outputs = spec
        formulas = [parse(text) for text in texts]
        cert = check_obligations(formulas, inputs, outputs)
        reference = oracle_obligations.check_obligations(formulas, outputs)
        if cert.outcome is ObligationOutcome.UNREALIZABLE:
            assert reference.outcome is ObligationOutcome.INCONCLUSIVE
            expected = Verdict.UNREALIZABLE
        elif cert.outcome is ObligationOutcome.REALIZABLE:
            assert reference.outcome is ObligationOutcome.REALIZABLE
            expected = Verdict.REALIZABLE
        else:
            assert cert.outcome is reference.outcome
            return
        assert satisfiable(conj(formulas)) is not None
        if len(inputs) <= 3 and len(outputs) <= 3:
            with without_obligations():
                exact = check_realizability(formulas, inputs, outputs)
            assert exact.verdict is expected

    def test_large_alphabet_handled(self):
        # 40 variables: far beyond the explicit engines.
        formulas = [parse(f"G (i{k} -> o{k})") for k in range(20)]
        result = check_realizability(
            formulas, [f"i{k}" for k in range(20)], [f"o{k}" for k in range(20)]
        )
        assert result.verdict is Verdict.REALIZABLE
        assert all(c.method == "obligations" for c in result.components)


class TestObligationCaches:
    """The certificate's constant-word verdicts, cached per formula tuple,
    against cold calls."""

    @given(st.one_of(fragment_specs(), clash_specs()))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_repair_sequence_matches_cold_calls(self, spec):
        # A repair sequence: the formulas stay, and each step moves the
        # next input to the outputs, as the pipeline's repair loop does.
        # Then, as localization's shrink pass does, each formula is
        # dropped in turn under the first split.
        texts, inputs, outputs = spec
        formulas = [parse(text) for text in texts]
        steps = [(formulas, inputs[k:], outputs + inputs[:k]) for k in range(len(inputs) + 1)]
        steps += [
            (formulas[:k] + formulas[k + 1:], inputs, outputs) for k in range(len(formulas))
        ]
        realizability.clear_caches()
        warm = [check_obligations(*step) for step in steps]
        for step, result in zip(steps, warm):
            realizability.clear_caches()
            cold = check_obligations(*step)
            assert (result.outcome, result.obligations, result.conflict) == (
                cold.outcome, cold.obligations, cold.conflict
            )
            assert result.solves <= cold.solves
        realizability.clear_caches()

    def test_constant_word_solve_once_per_formula_tuple(self):
        formulas = [
            parse("G (a -> o)"), parse("G (a -> !o)"),
            parse("G (b -> o)"), parse("G (b -> !o)"),
        ]
        realizability.clear_caches()
        first = check_obligations(formulas, ["a", "b"], ["o"])
        # A repair moves a to the outputs: b's pair is now the core, and
        # the constant-word verdict of the same formulas is reused.
        repaired = check_obligations(formulas, ["b"], ["a", "o"])
        realizability.clear_caches()
        cold = check_obligations(formulas, ["b"], ["a", "o"])
        realizability.clear_caches()
        assert first.outcome is repaired.outcome is ObligationOutcome.UNREALIZABLE
        assert (first.conflict, repaired.conflict) == ((0, 1), (2, 3))
        assert (first.solves, repaired.solves, cold.solves) == (1, 0, 1)


@st.composite
def localization_specs(draw):
    """``(formulas, inputs, outputs)`` for localization: 1–8 formulas over
    at most 6 atoms, each atom an input or an output by a draw.  Shapes
    are invariants, delayed and eventual responses, cubes and constants,
    so groups merge, conflicts arise inside and across groups, and some
    specifications never localize."""
    names = "abcdef"[: draw(st.integers(1, 6))]
    roles = draw(st.lists(st.booleans(), min_size=len(names), max_size=len(names)))
    inputs = [name for name, is_input in zip(names, roles) if is_input]
    outputs = [name for name, is_input in zip(names, roles) if not is_input]

    def literal(pool=names):
        name = draw(st.sampled_from(pool))
        return name if draw(st.booleans()) else f"!{name}"

    def response():
        # Mostly over outputs, so most formulas are realizable alone and
        # conflicts need several of them.
        return literal(outputs if outputs and draw(st.integers(0, 3)) else names)

    def formula():
        kind = draw(st.integers(0, 9))
        if kind <= 2:
            return f"G ({literal()} -> {response()})"
        if kind == 3:
            return f"G ({literal()} -> X {response()})"
        if kind == 4:
            return f"G ({literal()} -> F {response()})"
        if kind == 5:
            return f"F {response()}"
        if kind <= 7:
            return f"G ({literal()} -> ({response()} && {response()}))"
        if kind == 8:
            return f"G {response()}"
        return draw(st.sampled_from(["G false", "G true", "false", "F false"]))

    texts = [formula() for _ in range(draw(st.integers(1, 8)))]
    return texts, inputs, outputs


class TestLocalization:
    def test_core_found(self):
        formulas = [
            parse("G (a -> x)"),
            parse("G (b -> y)"),
            parse("G (c -> y)"),
            parse("G (b -> !y)"),  # conflicts with formula 1
        ]
        inputs, outputs = ["a", "b", "c"], ["x", "y"]
        result = localize(formulas, inputs, outputs)
        assert result is not None
        assert result.culprit == 3
        # Both {1,3} and {2,3} are minimal unrealizable cores; either is
        # a correct localization.
        assert 3 in result.core and len(result.core) == 2
        core = [formulas[i] for i in result.core]
        assert check_realizability(core, inputs, outputs).verdict is Verdict.UNREALIZABLE

    def test_realizable_specification_yields_none(self):
        formulas = [parse("G (a -> x)"), parse("G (b -> y)")]
        assert localize(formulas, ["a", "b"], ["x", "y"]) is None

    def test_core_is_minimal(self):
        formulas = [
            parse("G (a -> x)"),
            parse("G (a -> !x)"),
            parse("G (a -> z)"),
        ]
        result = localize(formulas, ["a"], ["x", "z"])
        assert set(result.core) == {0, 1}

    @given(localization_specs())
    # The culprit merges the groups of formulas 0 and 1; the shrink pass
    # drops formula 1 again.
    @example((["G (a -> o)", "G (b -> p)", "G (a -> (!o && p))"], ["a", "b"], ["o", "p"]))
    # An atomless formula is a group of its own.
    @example((["G (a -> o)", "G true", "G false", "G (a -> !o)"], ["a"], ["o"]))
    # Realizable throughout: no prefix localizes.
    @example((["G (a -> o)", "G (b -> F o)", "F !o", "G (b -> X b)"], ["a"], ["b", "o"]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_prefix_growth(self, spec):
        texts, inputs, outputs = spec
        formulas = [parse(text) for text in texts]
        result = localize(formulas, inputs, outputs)
        reference = oracle_localization.localize(formulas, inputs, outputs)
        assert (None if result is None else (result.culprit, result.core)) == reference
