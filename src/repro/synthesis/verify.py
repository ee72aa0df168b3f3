"""Independent verification of synthesized controllers.

A Mealy machine satisfies a specification iff no behaviour it can exhibit
(over any input sequence) violates the formula, i.e. the product of the
machine's computation graph with the Büchi automaton of the *negated*
specification is empty.  The synthesis engines never certify their own
output: every controller in the test suite goes through this checker.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..logic.ast import Formula, Not
from ..logic.semantics import LassoWord
from ..automata.buchi import BuchiAutomaton, Label
from ..automata.emptiness import find_witness
from ..automata.gpvw import translate
from .mealy import MealyMachine, all_letters


def violation_witness(
    machine: MealyMachine, specification: Formula
) -> Optional[LassoWord]:
    """An input/output trace of *machine* violating *specification*, if any.

    Returns ``None`` when the controller is correct.
    """
    negated = translate(Not(specification))
    product = BuchiAutomaton(atoms=negated.atoms)
    index: Dict[Tuple[int, int], int] = {}

    def state_for(machine_state: int, automaton_state: int) -> int:
        key = (machine_state, automaton_state)
        if key not in index:
            index[key] = product.new_state(f"m{machine_state}&a{automaton_state}")
        return index[key]

    letters = all_letters(machine.inputs)
    worklist = []
    for initial in negated.initial:
        product.initial.add(state_for(machine.initial, initial))
        worklist.append((machine.initial, initial))
    seen = set(worklist)
    while worklist:
        machine_state, automaton_state = worklist.pop()
        src = index[(machine_state, automaton_state)]
        for input_letter in letters:
            successor, output = machine.step(machine_state, input_letter)
            combined = input_letter | output
            for label, dst in negated.successors(automaton_state):
                if not label.matches(combined):
                    continue
                product.add_transition(
                    src,
                    Label(frozenset(combined), frozenset()),
                    state_for(successor, dst),
                )
                if (successor, dst) not in seen:
                    seen.add((successor, dst))
                    worklist.append((successor, dst))

    product.accepting_sets = [
        {
            index[(m, a)]
            for (m, a) in index
            if a in accepting
        }
        for accepting in negated.accepting_sets
    ]
    witness = find_witness(product)
    if witness is None:
        return None
    return witness.word


def satisfies_specification(machine: MealyMachine, specification: Formula) -> bool:
    """True when every behaviour of *machine* satisfies *specification*."""
    return violation_witness(machine, specification) is None
