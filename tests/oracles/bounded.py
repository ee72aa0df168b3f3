"""Bounded-synthesis references: the from-scratch encoding (one CNF and one
solver per bound) and the system/dual bounded-synthesis engine rung."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.automata.buchi import BuchiAutomaton
from repro.sat.cdcl import CDCLSolver
from repro.sat.cnf import CNF
from repro.synthesis import realizability
from repro.synthesis.bounded import (
    _COUNTER_KEYS,
    BoundedSynthesisResult,
    IncrementalBoundedSynthesizer,
    _canonical_model,
    _decision_order,
    _extract_machine,
    default_annotation_bound,
)
from repro.synthesis.mealy import Letter, all_letters
from repro.synthesis.realizability import Verdict
from repro.synthesis.verify import satisfies_specification


class FreshBoundedSynthesizer(IncrementalBoundedSynthesizer):
    """Rebuilds the whole encoding on every :meth:`solve` call.

    Built through the inherited ``for_system``/``for_environment``
    factories.  Bounds may shrink between calls, and the solver stats
    report no reuse.
    """

    def solve(
        self, num_states: int, annotation_bound: Optional[int] = None
    ) -> BoundedSynthesisResult:
        return _synthesize_against(
            self.automaton,
            adversary=self.adversary,
            controlled=self.controlled,
            num_states=num_states,
            annotation_bound=annotation_bound,
            moore=self.moore,
        )


def _synthesize_against(
    automaton: BuchiAutomaton,
    adversary: Tuple[str, ...],
    controlled: Tuple[str, ...],
    num_states: int,
    annotation_bound: Optional[int],
    moore: bool,
) -> BoundedSynthesisResult:
    """The from-scratch encoding: one CNF, one solver, one bound."""
    rejecting = automaton.accepting_sets[0] if automaton.accepting_sets else set()
    states = sorted(automaton.reachable_states())
    if annotation_bound is None:
        annotation_bound = default_annotation_bound(num_states, len(rejecting))
    k = annotation_bound

    cnf = CNF()
    letters = all_letters(adversary)

    # Transition choice: exactly one successor per (state, adversary letter).
    delta: Dict[Tuple[int, Letter, int], int] = {}
    for s in range(num_states):
        for sigma in letters:
            row = []
            for t in range(num_states):
                var = cnf.new_var(f"d{s},{'.'.join(sorted(sigma))},{t}")
                delta[(s, sigma, t)] = var
                row.append(var)
            cnf.add_exactly_one(row)

    # Output choice: per (state, letter) for Mealy, per state for Moore.
    gamma: Dict[Tuple[int, Letter, str], int] = {}
    for s in range(num_states):
        for sigma in letters if not moore else [frozenset()]:
            for prop in controlled:
                var = cnf.new_var(f"g{s},{'.'.join(sorted(sigma))},{prop}")
                gamma[(s, sigma, prop)] = var
    if moore:
        # Outputs ignore the letter; alias every letter to the state row.
        for s in range(num_states):
            for sigma in letters:
                for prop in controlled:
                    gamma[(s, sigma, prop)] = gamma[(s, frozenset(), prop)]

    # Annotation: b[s][q] (defined) and unary counters u[s][q][j] (>= j).
    defined: Dict[Tuple[int, int], int] = {}
    counter: Dict[Tuple[int, int, int], int] = {}
    for s in range(num_states):
        for q in states:
            defined[(s, q)] = cnf.new_var(f"b{s},{q}")
            previous = defined[(s, q)]
            for j in range(1, k + 1):
                var = cnf.new_var(f"u{s},{q},{j}")
                counter[(s, q, j)] = var
                cnf.add([-var, previous])  # >= j implies >= j-1
                previous = var

    def at_least(s: int, q: int, j: int) -> Optional[int]:
        """Literal for lambda(s,q) >= j; None when j exceeds the bound."""
        if j <= 0:
            return defined[(s, q)]
        if j > k:
            return None
        return counter[(s, q, j)]

    # Initial annotation.
    for q0 in automaton.initial:
        cnf.add([defined[(0, q0)]])

    adversary_set = frozenset(adversary)
    controlled_set = frozenset(controlled)

    # Core constraints: every matching automaton edge propagates the
    # annotation to the machine's successor state.
    for q in states:
        edges = automaton.successors(q)
        for s in range(num_states):
            for sigma in letters:
                for label, q2 in edges:
                    input_part = label.restrict(adversary_set)
                    if not input_part.matches(sigma):
                        continue
                    output_pos = sorted(label.pos & controlled_set)
                    output_neg = sorted(label.neg & controlled_set)
                    guard = [gamma[(s, sigma, p)] for p in output_pos]
                    guard += [-gamma[(s, sigma, p)] for p in output_neg]
                    bump = 1 if q2 in rejecting else 0
                    for t in range(num_states):
                        base = [-delta[(s, sigma, t)]] + [-g for g in guard]
                        for j in range(0, k + 1):
                            source = at_least(s, q, j)
                            target = at_least(t, q2, j + bump)
                            if source is None:
                                continue
                            if target is None:
                                # Counter overflow: the edge must not fire.
                                cnf.add(base + [-source])
                            else:
                                cnf.add(base + [-source, target])
    solver = CDCLSolver(cnf)
    result = solver.solve()

    def flat_stats() -> Dict[str, int]:
        stats = solver.stats()
        flat = {key: stats[key] for key in _COUNTER_KEYS}
        flat["incremental_solves"] = 0
        flat["learnt_carried"] = 0
        flat["clauses_added"] = 0
        return flat

    if not result:
        return BoundedSynthesisResult(
            False, None, num_states, k, cnf.num_vars, len(cnf.clauses),
            solver_stats=flat_stats(),
        )

    model = _canonical_model(
        solver,
        [],
        _decision_order(delta, gamma, num_states, letters, controlled, moore),
        dict(result.model),
    )
    machine = _extract_machine(
        model, delta, gamma, num_states, adversary, controlled, letters
    )
    return BoundedSynthesisResult(
        True, machine, num_states, k, cnf.num_vars, len(cnf.clauses),
        solver_stats=flat_stats(),
    )


#: The state bound of both directions of :func:`bounded_engines`.
MAX_STATES = 3


def bounded_engines(problem) -> "realizability._ComponentOutcome":
    """The exact-engine rung with bounded synthesis in both directions.

    At each size from 1 to :data:`MAX_STATES`, bounded synthesis of a
    system controller may decide REALIZABLE, then the dual (an
    environment strategy with as many states) may decide UNREALIZABLE.
    It takes the place of ``realizability._engines`` in
    ``realizability.RUNGS``, and reads ``IncrementalBoundedSynthesizer``
    through :mod:`repro.synthesis.realizability` at call time, so a test
    can patch :class:`FreshBoundedSynthesizer` in there too.  The
    component cache cannot tell the rungs apart: clear it around a swap.
    """
    if not problem.explicit_ok:
        return realizability._ComponentOutcome(
            Verdict.UNKNOWN, None, None, False, "too-large"
        )
    synthesizer = realizability.IncrementalBoundedSynthesizer
    specification = problem.specification
    system = synthesizer.for_system(specification, problem.inputs, problem.outputs)
    environment = None
    controller = counterstrategy = None
    verdict = Verdict.UNKNOWN
    for size in range(1, MAX_STATES + 1):
        attempt = system.solve(num_states=size)
        if attempt.realizable:
            controller, verdict = attempt.machine, Verdict.REALIZABLE
            break
        if len(problem.outputs) <= 8:
            if environment is None:
                environment = synthesizer.for_environment(
                    specification, problem.inputs, problem.outputs
                )
            dual = environment.solve(num_states=size)
            if dual.realizable:
                counterstrategy, verdict = dual.machine, Verdict.UNREALIZABLE
                break
    if controller is not None:
        assert satisfies_specification(controller, specification)
    return realizability._ComponentOutcome(
        verdict, controller, counterstrategy, False, "bounded"
    )


def with_bounded_engines(rungs: tuple) -> tuple:
    """*rungs* with :func:`bounded_engines` in place of the game rung."""
    assert realizability._engines in rungs, "the game rung was renamed"
    return tuple(
        bounded_engines if rung is realizability._engines else rung
        for rung in rungs
    )
