"""Safety-game references: concrete letters and the offline attractor.

:class:`ConcreteGame` enumerates every subset of the declared alphabet
instead of the guard-support quotient; :class:`OfflineGame` explores the
whole arena and then runs the post-hoc losing-region fixpoint instead of
the on-the-fly attractor with its early abort.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple, Type

from repro.automata.buchi import BuchiAutomaton
from repro.automata.gpvw import translate
from repro.logic.ast import Formula, Not
from repro.synthesis.safety_game import (
    CountingFunction,
    SafetyGameResult,
    StateSpaceLimit,
    _Game,
)


class ConcreteGame(_Game):
    """Letters over the full ``2^|I| * 2^|O|`` alphabet."""

    def _enumerated(self, names: Tuple[str, ...], support: int) -> Tuple[str, ...]:
        return names


class OfflineGame(_Game):
    """Full exploration followed by the post-hoc fixpoint."""

    def _losing_region(self) -> Set[CountingFunction]:
        self._explore()
        return self._offline_losing()

    def _explore(self) -> None:
        worklist = [self.initial]
        self.successors[self.initial] = {}
        while worklist:
            position = worklist.pop()
            table = self.successors[position]
            for sigma_mask in self.input_masks:
                row: Dict[int, Optional[CountingFunction]] = {}
                for out_mask in self.output_masks:
                    self.letters_enumerated += 1
                    successor = self._update_mask(position, sigma_mask | out_mask)
                    row[out_mask] = successor
                    if successor is not None and successor not in self.successors:
                        if len(self.successors) >= self.max_positions:
                            raise StateSpaceLimit(
                                f"safety game exceeded {self.max_positions} positions"
                            )
                        self.successors[successor] = {}
                        worklist.append(successor)
                table[sigma_mask] = row

    def _offline_losing(self) -> Set[CountingFunction]:
        """The post-hoc O(positions^2) fixpoint (reference path)."""
        losing: Set[CountingFunction] = set()
        changed = True
        while changed:
            changed = False
            for position, table in self.successors.items():
                if position in losing:
                    continue
                if self._is_losing(table, losing):
                    losing.add(position)
                    changed = True
        return losing

    def _is_losing(
        self,
        table: Dict[int, Dict[int, Optional[CountingFunction]]],
        losing: Set[CountingFunction],
    ) -> bool:
        for row in table.values():
            if all(
                successor is None or successor in losing
                for successor in row.values()
            ):
                return True
        return False


def solve_automaton(
    game: Type[_Game],
    automaton: BuchiAutomaton,
    inputs: Sequence[str],
    outputs: Sequence[str],
    bound: int = 2,
    max_positions: int = 200_000,
) -> SafetyGameResult:
    """:func:`repro.synthesis.safety_game.solve_automaton` on *game*."""
    rejecting = automaton.accepting_sets[0] if automaton.accepting_sets else set()
    return game(
        automaton, rejecting, tuple(sorted(inputs)), tuple(sorted(outputs)),
        bound, max_positions,
    ).solve()


def solve(
    game: Type[_Game],
    specification: Formula,
    inputs: Sequence[str],
    outputs: Sequence[str],
    bound: int = 2,
    max_positions: int = 200_000,
) -> SafetyGameResult:
    """:func:`repro.synthesis.safety_game.solve` on *game*."""
    automaton = translate(Not(specification)).degeneralize()
    return solve_automaton(game, automaton, inputs, outputs, bound, max_positions)
