"""Bounded LTL synthesis via SAT (Finkbeiner & Schewe).

To decide whether a system with ``n`` states can realize a specification
``phi`` over inputs ``I`` and outputs ``O``:

1. build the Büchi automaton of ``!phi`` (GPVW) and read it as a
   *universal co-Büchi* automaton: the closed loop must not let any run
   visit a rejecting state infinitely often;
2. guess a Mealy machine with ``n`` states and an annotation
   ``lambda : S x Q -> {bot, 0..k}`` bounding how often rejecting states
   can still be visited;  the existence of a consistent annotation is
   equivalent to correctness of the machine (for sufficiently large
   ``k``), and is expressible in SAT;
3. a satisfying assignment yields the controller directly.

Unrealizability is semi-decided through the *dual* game: the environment,
now the constructive player, moves first each step (a Moore machine over
the outputs) and tries to enforce ``!phi``; bounded synthesis of that
machine witnesses unrealizability.  The realizability driver runs only
this dual, after each bound the safety game does not win; the system
direction (:meth:`IncrementalBoundedSynthesizer.for_system`) is what the
differential tests cross-check the game against.

Incremental solving across bounds
---------------------------------

The realizability driver grows ``num_states`` (and with it the annotation
bound ``k``) one step at a time, and the encoding grows *monotonically*
with both: new states and counters only ever add variables and clauses.
:class:`IncrementalBoundedSynthesizer` therefore keeps ONE
:class:`~repro.sat.cdcl.CDCLSolver` alive across the whole bound ladder
(the assumption mechanism of MiniSat-style solvers).  Only two clause
families are *retracted* by a larger bound: the at-least-one successor
rows (which would forbid routing to states that do not exist yet) and the
counter-overflow caps (which pin the annotation at the current ``k``).
Both are rephrased so even they become permanent: every transition row
carries an *escape literal* ``e`` meaning "the successor lies beyond the
current state count" (``row[0..n-1] + [e]`` is permanent; growing ``n``
extends it with ``[-e_n, row[n..n'-1], e_n']``), and the unary annotation
counters are allocated one *phantom* level ahead, so the overflow clause
at ``j + bump = k + 1`` is just the ordinary propagation clause targeting
``u[k+1]``.  The bound-specific part collapses to binary *muting* clauses
``[-e, -activation]`` / ``[-u_(k+1), -activation]`` gated behind a
per-configuration activation literal and solved under assumptions;
growing the bound adds the unit ``[-old_activation]`` and re-mutes the
new frontier.  Because conflicts now resolve against permanent clauses,
the learnt clauses mention the escape/phantom variables — not the retired
activation literal — and keep pruning the search at every later bound,
alongside the surviving VSIDS activity and saved phases.

The controller is extracted from the *canonical* model — the greedy
polarity-preferred completion computed by :func:`_canonical_model` — so
the machine is a pure function of the constraint set, not of the search
path.  The from-scratch construction (one CNF and one solver per bound)
lives with the tests (``tests/oracles/bounded.py``) as a subclass that
overrides :meth:`IncrementalBoundedSynthesizer.solve`, and the
differential suites assert byte-identical machines across the two
encodings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..automata.buchi import BuchiAutomaton, Label
from ..automata.gpvw import translate
from ..logic.ast import Formula, Not
from ..sat.cdcl import CDCLSolver
from ..sat.cnf import CNF
from .mealy import Letter, MealyMachine, all_letters

#: The integer counters of :class:`~repro.sat.cdcl.CDCLSolver.stats` that
#: are reported per synthesis step (as deltas of the persistent solver).
_COUNTER_KEYS = (
    "propagations",
    "conflicts",
    "decisions",
    "restarts",
    "clause_visits",
    "learnt_clauses",
)


@dataclass(frozen=True)
class BoundedSynthesisResult:
    """Outcome of one bounded synthesis attempt (fixed n, k)."""

    realizable: bool
    machine: Optional[MealyMachine]
    num_states: int
    annotation_bound: int
    sat_vars: int = 0
    sat_clauses: int = 0
    #: Per-attempt SAT work — propagations, conflicts, restarts, clause
    #: visits (deltas of :meth:`repro.sat.cdcl.CDCLSolver.stats` when the
    #: solver is persistent), plus the incremental-reuse counters
    #: ``incremental_solves`` (solve calls served by a carried-over solver)
    #: and ``learnt_carried`` (learnt clauses alive when the attempt
    #: started) — so callers can aggregate SAT work across the synthesis
    #: loop and see the reuse.
    solver_stats: Dict[str, int] = field(default_factory=dict, compare=False)


def default_annotation_bound(num_states: int, num_rejecting: int) -> int:
    """The ``k`` used when the caller does not pick one.

    Monotone in ``num_states`` (for a fixed automaton), which is what lets
    the incremental encoding grow ``k`` alongside the state count.
    """
    return max(2, min(num_states * max(1, num_rejecting), 8))


class IncrementalBoundedSynthesizer:
    """Bounded synthesis that persists SAT work across a bound ladder.

    One instance owns the (degeneralized) co-Büchi automaton and one
    persistent CDCL solver.  Each :meth:`solve` call grows
    ``num_states``/``annotation_bound`` monotonically: fresh variables
    are allocated for new states and counters, permanent clauses are
    added once, and the bound-specific clause families are re-gated
    behind a new activation literal (see the module docstring).
    """

    def __init__(
        self,
        automaton: BuchiAutomaton,
        adversary: Tuple[str, ...],
        controlled: Tuple[str, ...],
        moore: bool,
    ) -> None:
        self.automaton = automaton
        self.adversary = tuple(adversary)
        self.controlled = tuple(controlled)
        self.moore = moore
        self.rejecting = (
            automaton.accepting_sets[0] if automaton.accepting_sets else set()
        )
        self.states = sorted(automaton.reachable_states())
        self.letters = all_letters(self.adversary)
        # Persistent incremental state.
        self.cnf = CNF()
        self.solver: Optional[CDCLSolver] = None
        self.num_states = 0
        self.annotation_bound = -1
        self.activation: Optional[int] = None
        self.clauses_added = 0
        self.delta: Dict[Tuple[int, Letter, int], int] = {}
        self.gamma: Dict[Tuple[int, Letter, str], int] = {}
        self.defined: Dict[Tuple[int, int], int] = {}
        self.counter: Dict[Tuple[int, int, int], int] = {}
        #: Per-row escape literal: "successor index >= current num_states".
        self.escape: Dict[Tuple[int, Letter], int] = {}

    # ------------------------------------------------------------- factories
    @classmethod
    def for_system(
        cls,
        specification: Formula,
        inputs: Sequence[str],
        outputs: Sequence[str],
    ) -> "IncrementalBoundedSynthesizer":
        """Synthesize the *system* player against ``!specification``."""
        automaton = translate(Not(specification)).degeneralize()
        return cls(
            automaton,
            adversary=tuple(sorted(inputs)),
            controlled=tuple(sorted(outputs)),
            moore=False,
        )

    @classmethod
    def for_environment(
        cls,
        specification: Formula,
        inputs: Sequence[str],
        outputs: Sequence[str],
    ) -> "IncrementalBoundedSynthesizer":
        """Synthesize an environment (Moore) strategy enforcing ``!phi``."""
        automaton = translate(specification).degeneralize()
        return cls(
            automaton,
            adversary=tuple(sorted(outputs)),
            controlled=tuple(sorted(inputs)),
            moore=True,
        )

    # ------------------------------------------------------------------ API
    def solve(
        self, num_states: int, annotation_bound: Optional[int] = None
    ) -> BoundedSynthesisResult:
        """One synthesis attempt at ``(num_states, annotation_bound)``.

        Consecutive calls must not shrink either bound — the encoding only
        grows.
        """
        if annotation_bound is None:
            annotation_bound = default_annotation_bound(
                num_states, len(self.rejecting)
            )
        if num_states < self.num_states or annotation_bound < self.annotation_bound:
            raise ValueError(
                "incremental encoding only grows: "
                f"({num_states}, {annotation_bound}) shrinks "
                f"({self.num_states}, {self.annotation_bound})"
            )
        if self.solver is None:
            self.solver = CDCLSolver(self.cnf)
        before = self._counter_snapshot()
        learnt_carried = len(self.solver.learnt)
        if (
            num_states > self.num_states
            or annotation_bound > self.annotation_bound
            or self.activation is None
        ):
            self._grow(num_states, annotation_bound)
        result = self.solver.solve([self.activation])
        machine: Optional[MealyMachine] = None
        if result:
            model = _canonical_model(
                self.solver,
                [self.activation],
                _decision_order(
                    self.delta, self.gamma, num_states, self.letters,
                    self.controlled, self.moore,
                ),
                dict(result.model),
            )
            machine = _extract_machine(
                model, self.delta, self.gamma, num_states,
                self.adversary, self.controlled, self.letters,
            )
        stats = self._stats_delta(before)
        stats["incremental_solves"] = stats.pop("solves")
        stats["learnt_carried"] = learnt_carried
        stats["clauses_added"] = stats.pop("clauses_added_total")
        return BoundedSynthesisResult(
            bool(result),
            machine,
            num_states,
            annotation_bound,
            self.cnf.num_vars,
            self.clauses_added,
            solver_stats=stats,
        )

    # ------------------------------------------------------------ internals
    def _counter_snapshot(self) -> Dict[str, int]:
        stats = self.solver.stats()
        snapshot = {key: stats[key] for key in _COUNTER_KEYS}
        incremental = stats["incremental"]
        snapshot["solves"] = incremental["solves"]
        snapshot["clauses_added_total"] = incremental["clauses_added"]
        return snapshot

    def _stats_delta(self, before: Dict[str, int]) -> Dict[str, int]:
        after = self._counter_snapshot()
        return {key: after[key] - before[key] for key in after}

    def _add(self, clause: List[int]) -> None:
        self.solver.add_clause(clause)
        self.clauses_added += 1

    def _grow(self, n2: int, k2: int) -> None:
        """Extend the persistent encoding from (n1, k1) to (n2, k2).

        Permanent (monotone) clauses are emitted exactly once: a clause
        over old states/counters was already added by an earlier call —
        the per-call emission sets are nested because both bounds only
        grow — so each family below skips the already-emitted region.
        Escape literals keep the successor rows permanent and the phantom
        counter level keeps the overflow caps permanent (see the module
        docstring); only the binary muting clauses are gated behind the
        fresh activation literal.
        """
        n1, k1 = self.num_states, self.annotation_bound
        cnf = self.cnf
        automaton = self.automaton
        letters = self.letters
        # Retire the previous configuration's muting clauses at root level.
        if self.activation is not None:
            self._add([-self.activation])
        act = cnf.new_var(f"act{n2},{k2}")
        self.activation = act

        # Transition choice: fresh delta variables for pairs touching a new
        # state, pairwise at-most-one for new pairs, and the permanent
        # at-least-one row closed by this configuration's escape literal —
        # growing n rewrites the old escape as "route to a new state or
        # escape further", so clauses learnt about it stay meaningful.
        delta, escape = self.delta, self.escape
        for s in range(n2):
            for sigma in letters:
                for t in range(n2):
                    if s < n1 and t < n1:
                        continue
                    delta[(s, sigma, t)] = cnf.new_var(
                        f"d{s},{'.'.join(sorted(sigma))},{t}"
                    )
        for s in range(n2):
            for sigma in letters:
                row = [delta[(s, sigma, t)] for t in range(n2)]
                for i in range(n2):
                    for j in range(i + 1, n2):
                        if s < n1 and j < n1:
                            continue
                        self._add([-row[i], -row[j]])
                if s >= n1:
                    exit_var = cnf.new_var(
                        f"e{s},{'.'.join(sorted(sigma))},{n2}"
                    )
                    escape[(s, sigma)] = exit_var
                    self._add(row + [exit_var])
                elif n2 > n1:
                    old_exit = escape[(s, sigma)]
                    exit_var = cnf.new_var(
                        f"e{s},{'.'.join(sorted(sigma))},{n2}"
                    )
                    escape[(s, sigma)] = exit_var
                    self._add([-old_exit] + row[n1:] + [exit_var])
                self._add([-escape[(s, sigma)], -act])

        # Output choice: per (state, letter) for Mealy, per state for Moore
        # (aliased to every letter) — variables only, no clauses.
        gamma = self.gamma
        for s in range(n1, n2):
            for sigma in letters if not self.moore else [frozenset()]:
                for prop in self.controlled:
                    gamma[(s, sigma, prop)] = cnf.new_var(
                        f"g{s},{'.'.join(sorted(sigma))},{prop}"
                    )
            if self.moore:
                for sigma in letters:
                    for prop in self.controlled:
                        gamma[(s, sigma, prop)] = gamma[(s, frozenset(), prop)]

        # Annotation: b[s][q] (defined) and unary counters u[s][q][j],
        # allocated through the phantom level k2 + 1 so the overflow caps
        # below are ordinary (permanent) propagation clauses; the muting
        # clause pins the phantom level to false for this configuration.
        defined, counter = self.defined, self.counter
        for s in range(n2):
            for q in self.states:
                if s >= n1:
                    defined[(s, q)] = cnf.new_var(f"b{s},{q}")
                    previous = defined[(s, q)]
                    start = 1
                else:
                    previous = counter[(s, q, k1 + 1)]
                    start = k1 + 2
                for j in range(start, k2 + 2):
                    var = cnf.new_var(f"u{s},{q},{j}")
                    counter[(s, q, j)] = var
                    self._add([-var, previous])  # >= j implies >= j-1
                    previous = var
                self._add([-counter[(s, q, k2 + 1)], -act])

        # Initial annotation (state 0 exists from the first call on).
        if n1 == 0:
            for q0 in automaton.initial:
                self._add([defined[(0, q0)]])

        def at_least(s: int, q: int, j: int) -> int:
            return defined[(s, q)] if j <= 0 else counter[(s, q, j)]

        adversary_set = frozenset(self.adversary)
        controlled_set = frozenset(self.controlled)
        rejecting = self.rejecting

        # Core constraints: every matching automaton edge propagates the
        # annotation to the machine's successor state.  The j + bump =
        # k2 + 1 case targets the muted phantom level — under this
        # configuration's assumption it degenerates to the overflow cap.
        for q in self.states:
            edges = automaton.successors(q)
            for s in range(n2):
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
                        for t in range(n2):
                            base = [-delta[(s, sigma, t)]] + [-g for g in guard]
                            for j in range(0, k2 + 1):
                                if s < n1 and t < n1 and j <= k1:
                                    continue  # emitted by an earlier call
                                source = at_least(s, q, j)
                                target = at_least(t, q2, j + bump)
                                self._add(base + [-source, target])
        self.num_states = n2
        self.annotation_bound = k2


def _decision_order(
    delta: Dict[Tuple[int, Letter, int], int],
    gamma: Dict[Tuple[int, Letter, str], int],
    num_states: int,
    letters: List[Letter],
    controlled: Tuple[str, ...],
    moore: bool,
) -> List[Tuple[int, bool]]:
    """The canonicalization order over the machine-defining variables.

    Successor variables first (preferring *true*, so every row picks its
    smallest feasible successor), then the distinct output variables
    (preferring *false*, so don't-care outputs stay off — matching the
    safety game's first-safe-letter convention).  The order is a function
    of the configuration, never of variable-allocation history, so the
    incremental and fresh encodings canonicalize identically.
    """
    order: List[Tuple[int, bool]] = []
    for s in range(num_states):
        for sigma in letters:
            for t in range(num_states):
                order.append((delta[(s, sigma, t)], True))
    for s in range(num_states):
        for sigma in letters if not moore else [frozenset()]:
            for prop in controlled:
                order.append((gamma[(s, sigma, prop)], False))
    return order


def _canonical_model(
    solver: CDCLSolver,
    assumptions: List[int],
    decisions: List[Tuple[int, bool]],
    model: Dict[int, bool],
) -> Dict[int, bool]:
    """Greedy polarity-preferred model completion.

    Walks *decisions* in order; each variable is pinned to its preferred
    polarity whenever some model extends the pinned prefix that way, else
    to the opposite.  The result over the decision variables is the
    unique preference-greedy assignment of the constraint set — the same
    for any two equisatisfiable encodings — which makes the extracted
    machine independent of the search path.  A solve call is only paid
    when the current witness model disagrees with the preference, so on
    typical encodings canonicalization is a handful of assumption-only
    propagations.
    """
    fixed = list(assumptions)
    for var, prefer_true in decisions:
        preferred = var if prefer_true else -var
        if model[var] == prefer_true:
            fixed.append(preferred)
            continue
        probe = solver.solve(fixed + [preferred])
        if probe:
            model = dict(probe.model)
            fixed.append(preferred)
        else:
            fixed.append(-preferred)
    return model


def _extract_machine(
    model: Dict[int, bool],
    delta: Dict[Tuple[int, Letter, int], int],
    gamma: Dict[Tuple[int, Letter, str], int],
    num_states: int,
    adversary: Tuple[str, ...],
    controlled: Tuple[str, ...],
    letters: List[Letter],
) -> MealyMachine:
    machine = MealyMachine(
        inputs=adversary,
        outputs=controlled,
        num_states=num_states,
        initial=0,
    )
    for s in range(num_states):
        for sigma in letters:
            successor = next(
                t for t in range(num_states) if model[delta[(s, sigma, t)]]
            )
            output = frozenset(
                prop for prop in controlled if model[abs(gamma[(s, sigma, prop)])]
            )
            machine.add_transition(s, sigma, successor, output)
    return machine
