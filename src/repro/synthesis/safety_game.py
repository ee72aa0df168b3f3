"""The G4LTL-style engine: k-co-Büchi determinization to a safety game.

G4LTL checks realizability by strengthening the universal co-Büchi
condition ("rejecting states visited finitely often") to a k-co-Büchi one
("… at most k times"), which determinizes cheaply into a *counting-function*
safety automaton: each game position maps every automaton state to the
maximal number of rejecting visits on any run reaching it (or absent).
Solving the resulting safety game by backward induction yields a
controller; growing ``k`` recovers completeness in the limit.

Positions are explored on the fly over **partial letters**: only the
propositions that actually appear in some transition guard (the label
support) are enumerated, every other proposition stays symbolic.  Two
concrete letters that agree on the support take identical transitions, so
the quotient is exact — the game over partial letters has the same
positions, the same losing region and yields the same controller as the
game over all ``2^|I| * 2^|O|`` concrete letters, at a cost independent of
how many don't-care outputs the interface declares.

The losing region is likewise computed **during** exploration rather than
as a post-hoc fixpoint: every position keeps a safe-move counter per
input row and a predecessor list, a row exhausting its safe moves marks
the position losing, and the standard attractor cascade decrements the
counters of its predecessors — each edge is touched O(1) times instead of
once per ``while changed`` sweep.  The payoff is on unrealizable-at-bound
games: the moment the *initial* position falls into the losing region the
verdict is final, exploration aborts, and every position still waiting on
the worklist is never expanded (counted as ``positions_pruned``).

The two references the golden equivalence tests and benchmarks compare
against, the pre-quotient concrete enumeration and the full-exploration +
post-hoc fixpoint, live with the tests (``tests/oracles/game.py``) as
subclasses of :class:`_Game` that override one step each:
:meth:`_Game._enumerated` and :meth:`_Game._losing_region`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..automata.buchi import BuchiAutomaton
from ..automata.gpvw import translate
from ..logic.ast import Formula, Not
from .mealy import Letter, MealyMachine, all_letters

CountingFunction = Tuple[Tuple[int, int], ...]  # sorted ((state, count), ...)


class StateSpaceLimit(RuntimeError):
    """Raised when the explored game graph exceeds the configured cap."""


@dataclass(frozen=True)
class SafetyGameResult:
    """Outcome of one k-bounded safety-game analysis."""

    realizable: bool
    machine: Optional[MealyMachine]
    bound: int
    positions_explored: int
    #: Work counters: letters enumerated (= counting-function updates), the
    #: size of the enumerated input/output letter sets and of the support,
    #: the losing-region size and the positions the early abort skipped.
    stats: Dict[str, int] = field(default_factory=dict, compare=False)


def solve(
    specification: Formula,
    inputs: Sequence[str],
    outputs: Sequence[str],
    bound: int = 2,
    max_positions: int = 200_000,
) -> SafetyGameResult:
    """Solve the ``bound``-co-Büchi safety game for *specification*.

    ``realizable=True`` is definitive; ``False`` only means "not winnable
    within this bound" — the caller grows the bound or consults the dual
    engine for unrealizability.
    """
    automaton = translate(Not(specification)).degeneralize()
    return solve_automaton(
        automaton, inputs, outputs, bound=bound, max_positions=max_positions
    )


def solve_automaton(
    automaton: BuchiAutomaton,
    inputs: Sequence[str],
    outputs: Sequence[str],
    bound: int = 2,
    max_positions: int = 200_000,
) -> SafetyGameResult:
    """:func:`solve` for a pre-built (degeneralized) co-Büchi automaton.

    An automaton without accepting sets has no rejecting states: no
    counter can ever exceed the bound and the game is a plain safety
    check over the transition structure.
    """
    rejecting = automaton.accepting_sets[0] if automaton.accepting_sets else set()
    game = _Game(automaton, rejecting, tuple(sorted(inputs)), tuple(sorted(outputs)),
                 bound, max_positions)
    return game.solve()


class _Game:
    def __init__(
        self,
        automaton: BuchiAutomaton,
        rejecting: Set[int],
        inputs: Tuple[str, ...],
        outputs: Tuple[str, ...],
        bound: int,
        max_positions: int,
    ) -> None:
        self.automaton = automaton
        self.rejecting = rejecting
        self.inputs = inputs
        self.outputs = outputs
        self.bound = bound
        self.max_positions = max_positions
        # Bitmask compilation: propositions get bit positions, transition
        # guards become (positive mask, negative mask) pairs, and letters
        # become integers — letter matching is then two AND operations.
        self.bit_of = {
            name: index
            for index, name in enumerate(sorted(set(inputs) | set(outputs)))
        }
        self.compiled: Dict[int, List[Tuple[int, int, int, int]]] = {}
        support = 0
        for state in automaton.reachable_states():
            rows = []
            alphabet = frozenset(self.bit_of)
            for label, successor in automaton.successors(state):
                if label.pos - alphabet:
                    # A positive literal over a proposition outside the
                    # alphabet can never hold: the edge is dead.
                    continue
                # Negative literals over unknown propositions always hold
                # (the proposition is never emitted) and are dropped.
                pos = self._mask(label.pos)
                neg = self._mask(label.neg & alphabet)
                bump = 1 if successor in rejecting else 0
                rows.append((pos, neg, successor, bump))
                support |= pos | neg
            self.compiled[state] = rows
        self.enum_inputs = self._enumerated(inputs, support)
        self.enum_outputs = self._enumerated(outputs, support)
        #: Concrete input letters are projected onto this mask to find
        #: their row.
        self.row_input_mask = self._mask(frozenset(self.enum_inputs))
        self.input_letters = all_letters(self.enum_inputs)
        self.output_letters = all_letters(self.enum_outputs)
        self.input_masks = [self._mask(letter) for letter in self.input_letters]
        self.output_masks = [self._mask(letter) for letter in self.output_letters]
        self.support_size = bin(support).count("1")
        initial: Dict[int, int] = {}
        for q in automaton.initial:
            bump = 1 if q in rejecting else 0
            initial[q] = max(initial.get(q, 0), bump)
        self.initial = _freeze(initial)
        # position -> {input letter mask -> {output letter mask -> successor}}
        self.successors: Dict[
            CountingFunction, Dict[int, Dict[int, Optional[CountingFunction]]]
        ] = {}
        self.letters_enumerated = 0
        # On-the-fly attractor state: the losing region so far, the number
        # of not-yet-losing moves per (position, input row), the reverse
        # edges feeding the cascade (one entry per edge occurrence, so a
        # successor's fall into the losing region decrements each counter
        # exactly as often as the row counted it), and the number of
        # discovered-but-never-expanded positions at the early abort.
        self.losing: Set[CountingFunction] = set()
        self.safe_moves: Dict[Tuple[CountingFunction, int], int] = {}
        self.predecessors: Dict[
            CountingFunction, List[Tuple[CountingFunction, int]]
        ] = {}
        self.positions_pruned = 0

    def _mask(self, names: FrozenSet[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.bit_of[name]
        return mask

    def _enumerated(self, names: Tuple[str, ...], support: int) -> Tuple[str, ...]:
        """The propositions of *names* whose letters are enumerated.

        Partial letters: every proposition outside the guard support is a
        don't-care — transitions cannot distinguish letters that agree on
        the support, so enumerating support subsets is an exact quotient.
        """
        return tuple(name for name in names if support & (1 << self.bit_of[name]))

    # ------------------------------------------------------------- exploration
    def _update_mask(
        self, position: CountingFunction, letter: int
    ) -> Optional[CountingFunction]:
        """Deterministic counting-function successor; None = unsafe."""
        result: Dict[int, int] = {}
        bound = self.bound
        get = result.get
        for state, count in position:
            for pos, neg, successor, bump in self.compiled[state]:
                if letter & pos != pos or letter & neg:
                    continue
                bumped = count + bump
                if bumped > bound:
                    return None
                if get(successor, -1) < bumped:
                    result[successor] = bumped
        return _freeze(result)

    def _explore_onthefly(self) -> None:
        """Exploration interleaved with the counter-based attractor.

        Losing positions are still fully expanded — the attractor needs
        their outgoing edges and the explored graph must match the
        offline reference on realizable games — but the instant the
        *initial* position turns losing the verdict can no longer change,
        so everything still waiting on the worklist is abandoned.
        """
        worklist = [self.initial]
        self.successors[self.initial] = {}
        while worklist:
            position = worklist.pop()
            table = self.successors[position]
            for sigma_mask in self.input_masks:
                row: Dict[int, Optional[CountingFunction]] = {}
                safe = 0
                for out_mask in self.output_masks:
                    self.letters_enumerated += 1
                    successor = self._update_mask(position, sigma_mask | out_mask)
                    row[out_mask] = successor
                    if successor is None:
                        continue
                    if successor not in self.successors:
                        if len(self.successors) >= self.max_positions:
                            raise StateSpaceLimit(
                                f"safety game exceeded {self.max_positions} positions"
                            )
                        self.successors[successor] = {}
                        worklist.append(successor)
                    self.predecessors.setdefault(successor, []).append(
                        (position, sigma_mask)
                    )
                    if successor not in self.losing:
                        safe += 1
                table[sigma_mask] = row
                self.safe_moves[(position, sigma_mask)] = safe
                if safe == 0 and position not in self.losing:
                    self._mark_losing(position)
                    if self.initial in self.losing:
                        self.positions_pruned = len(worklist)
                        return

    def _mark_losing(self, position: CountingFunction) -> None:
        """Attractor cascade: pull predecessors whose rows run dry."""
        stack = [position]
        while stack:
            fallen = stack.pop()
            if fallen in self.losing:
                continue
            self.losing.add(fallen)
            for predecessor, sigma_mask in self.predecessors.get(fallen, ()):
                if predecessor in self.losing:
                    continue
                key = (predecessor, sigma_mask)
                self.safe_moves[key] -= 1
                if self.safe_moves[key] == 0:
                    stack.append(predecessor)

    # ------------------------------------------------------------------ solve
    def solve(self) -> SafetyGameResult:
        losing = self._losing_region()
        # Explored = actually expanded; positions the early abort left on
        # the worklist were discovered by name but never cost a letter
        # enumeration, so they count as pruned, not explored.
        explored = len(self.successors) - self.positions_pruned
        stats = {
            "positions": explored,
            "positions_discovered": len(self.successors),
            "letters_enumerated": self.letters_enumerated,
            "input_letters": len(self.input_letters),
            "output_letters": len(self.output_letters),
            "support_propositions": self.support_size,
            "alphabet_propositions": len(self.bit_of),
            "losing_positions": len(losing),
            "positions_pruned": self.positions_pruned,
        }
        if self.initial in losing:
            return SafetyGameResult(False, None, self.bound, explored, stats)
        machine = self._extract(losing)
        return SafetyGameResult(True, machine, self.bound, explored, stats)

    def _losing_region(self) -> Set[CountingFunction]:
        """Explore the game and return its losing region."""
        self._explore_onthefly()
        return self.losing

    def _extract(self, losing: Set[CountingFunction]) -> MealyMachine:
        """Deterministic strategy over the winning region.

        The machine is total over the full *concrete* input alphabet: each
        concrete input letter is projected onto the enumerated support to
        find its row.  The chosen output letter is the first safe one in
        ``all_letters`` order; don't-care outputs stay off, which is also
        what the first safe letter of the concrete enumeration looks like —
        so partial and concrete letters extract the identical machine.
        """
        order: Dict[CountingFunction, int] = {self.initial: 0}
        machine = MealyMachine(
            inputs=self.inputs, outputs=self.outputs, num_states=0
        )
        worklist = [self.initial]
        transitions: List[Tuple[int, Letter, CountingFunction, Letter]] = []
        concrete_inputs = [
            (sigma, self._mask(sigma) & self.row_input_mask)
            for sigma in all_letters(self.inputs)
        ]
        while worklist:
            position = worklist.pop()
            source = order[position]
            table = self.successors[position]
            for sigma, sigma_row_mask in concrete_inputs:
                row = table[sigma_row_mask]
                chosen: Optional[Tuple[Letter, CountingFunction]] = None
                for out, out_mask in zip(self.output_letters, self.output_masks):
                    successor = row[out_mask]
                    if successor is not None and successor not in losing:
                        chosen = (out, successor)
                        break
                assert chosen is not None, "winning position must have a move"
                out, successor = chosen
                if successor not in order:
                    order[successor] = len(order)
                    worklist.append(successor)
                transitions.append((source, sigma, successor, out))
        machine.num_states = len(order)
        for source, sigma, successor, out in transitions:
            machine.add_transition(source, sigma, order[successor], out)
        return machine


def _freeze(mapping: Dict[int, int]) -> CountingFunction:
    return tuple(sorted(mapping.items()))
