"""Automata helpers only the tests use: lasso membership, equivalence and
Mealy-machine runs.

* ``accepts`` decides whether a Büchi automaton accepts an ultimately
  periodic word, which cross-validates the GPVW construction against the
  direct trace semantics of ``oracles.ltl``;
* ``equivalent`` compares translated requirements with the paper's gold
  formulas modulo logically irrelevant syntax;
* ``is_satisfiable`` is :func:`repro.automata.ltlsat.satisfiable` as a
  boolean;
* ``run`` feeds a finite input word to a synthesized
  :class:`~repro.synthesis.mealy.MealyMachine`, and ``check_total``
  raises when one lacks a transition.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.automata.buchi import BuchiAutomaton, Label
from repro.automata.emptiness import find_witness
from repro.automata.ltlsat import satisfiable
from repro.logic.ast import And, Formula, Not
from repro.logic.semantics import LassoWord
from repro.synthesis.mealy import Letter, MealyMachine, all_letters

from .ltl import canonical_position, letter


def accepts(automaton: BuchiAutomaton, word: LassoWord) -> bool:
    """Decide whether *automaton* accepts *word*.

    The product of the automaton with the lasso's position structure is a
    Büchi automaton over a single-letter alphabet; the word is accepted iff
    that product has an accepting lasso.
    """
    product = BuchiAutomaton(atoms=automaton.atoms)
    index: Dict[Tuple[int, int], int] = {}

    def state_for(state: int, position: int) -> int:
        key = (state, position)
        if key not in index:
            index[key] = product.new_state(f"{state}@{position}")
        return index[key]

    worklist = []
    for init in automaton.initial:
        product.initial.add(state_for(init, 0))
        worklist.append((init, 0))
    seen = set(worklist)
    while worklist:
        state, position = worklist.pop()
        src = index[(state, position)]
        holding = letter(word, position)
        next_position = canonical_position(word, position + 1)
        for label, dst in automaton.successors(state):
            if not label.matches(holding):
                continue
            product.add_transition(src, Label(), state_for(dst, next_position))
            if (dst, next_position) not in seen:
                seen.add((dst, next_position))
                worklist.append((dst, next_position))

    product.accepting_sets = [
        {
            index[(state, position)]
            for (state, position) in index
            if state in acc
        }
        for acc in automaton.accepting_sets
    ]
    return find_witness(product) is not None


def is_satisfiable(formula: Formula) -> bool:
    return satisfiable(formula) is not None


def equivalent(left: Formula, right: Formula) -> bool:
    """Language equivalence of two formulas."""
    if satisfiable(And(left, Not(right))) is not None:
        return False
    return satisfiable(And(Not(left), right)) is None


def run(machine: MealyMachine, word: Sequence[Iterable[str]]) -> List[Letter]:
    """Feed a finite input word to *machine*; return the output letters."""
    state = machine.initial
    produced: List[Letter] = []
    for input_letter in word:
        state, output = machine.step(state, input_letter)
        produced.append(output)
    return produced


def check_total(machine: MealyMachine) -> None:
    """Raise when some (state, input letter) transition is missing."""
    for state in range(machine.num_states):
        for input_letter in all_letters(machine.inputs):
            if (state, input_letter) not in machine.transitions:
                raise ValueError(
                    f"missing transition from state {state} on "
                    f"{set(input_letter) or '{}'}"
                )
