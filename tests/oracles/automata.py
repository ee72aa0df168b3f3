"""Automata helpers only the tests use: lasso membership and equivalence.

* ``accepts`` decides whether a Büchi automaton accepts an ultimately
  periodic word, which cross-validates the GPVW construction against the
  direct trace semantics of :mod:`repro.logic.semantics`;
* ``equivalent`` compares translated requirements with the paper's gold
  formulas modulo logically irrelevant syntax;
* ``is_satisfiable`` is :func:`repro.automata.ltlsat.satisfiable` as a
  boolean.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.automata.buchi import BuchiAutomaton, Label
from repro.automata.emptiness import is_empty
from repro.automata.ltlsat import satisfiable
from repro.logic.ast import And, Formula, Not
from repro.logic.semantics import LassoWord


def accepts(automaton: BuchiAutomaton, word: LassoWord) -> bool:
    """Decide whether *automaton* accepts *word*.

    The product of the automaton with the lasso's position structure is a
    Büchi automaton over a single-letter alphabet; the word is accepted iff
    that product has an accepting lasso.
    """
    horizon = len(word)
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
        letter = word.letter(position)
        next_position = word.canonical_position(position + 1)
        for label, dst in automaton.successors(state):
            if not label.matches(letter):
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
    return not is_empty(product)


def is_satisfiable(formula: Formula) -> bool:
    return satisfiable(formula) is not None


def equivalent(left: Formula, right: Formula) -> bool:
    """Language equivalence of two formulas."""
    if satisfiable(And(left, Not(right))) is not None:
        return False
    return satisfiable(And(Not(left), right)) is None
